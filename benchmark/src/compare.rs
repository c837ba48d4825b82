//! `compare <A.json…> -- <B.json…>`: the before/after tool. Reads `--out`
//! files of two sets of runs and prints, per workload × end-to-end metric,
//! both medians and quartiles, how much worse B is than A, and a verdict
//! against the bound in `BENCHMARK.json`:
//!
//! - `UNRESOLVED` when either set's own spread (quartile distance over
//!   median) exceeds the bound — unless every run of B reads better than
//!   every run of A;
//! - `WORSE` when B's median is worse than A's by more than the bound;
//! - `PASS` otherwise.

use crate::stats::quartiles;
use serde_json::Value;
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Worse,
    Unresolved,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub a: (f64, f64, f64),
    pub b: (f64, f64, f64),
    /// Share of A's median by which B's median is worse (negative: better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// Quartile distance as a share of the median.
fn spread((q1, q2, q3): (f64, f64, f64)) -> f64 {
    (q3 - q1).abs() / q2.abs().max(f64::MIN_POSITIVE)
}

pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> Row {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (qb.1 - qa.1) / qa.1.abs().max(f64::MIN_POSITIVE);
    let b_always_better = if bound.lower_is_better {
        b.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            < a.iter().copied().fold(f64::INFINITY, f64::min)
    } else {
        b.iter().copied().fold(f64::INFINITY, f64::min)
            > a.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    };
    let verdict = if spread(qa).max(spread(qb)) > bound.bound && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else {
        Verdict::Pass
    };
    Row {
        a: qa,
        b: qb,
        worse_by,
        verdict,
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(x) => Some(*x),
        Value::Int(x) => Some(*x as f64),
        _ => None,
    }
}

pub fn read_bounds(spec: &Value) -> Result<Vec<Bound>, String> {
    let Some(Value::Array(items)) = spec.get("end_to_end") else {
        return Err("the spec has no `end_to_end` list".to_string());
    };
    items
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(number);
            match (name, better, bound) {
                (Some(name), Some(better @ ("lower" | "higher")), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry: {m:?}")),
            }
        })
        .collect()
}

/// `workload → metric → values`, from the `--out` files of one set.
fn read_set(paths: &[String]) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let v = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: no `workload` (is it an `--out` file?)"))?;
        let Some(Value::Object(metrics)) = v.get("metrics") else {
            return Err(format!("{path}: no `metrics` object"));
        };
        let by_metric = out.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(number)
                .ok_or_else(|| format!("{path}: metric `{name}` has no numeric value"))?;
            by_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(out)
}

pub fn main(argv: &[String]) -> Result<(), String> {
    let mut spec_path = "BENCHMARK.json".to_string();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut second = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--" => second = true,
            "--spec" => spec_path = it.next().ok_or("--spec needs a path")?.clone(),
            path if second => b.push(path.to_string()),
            path => a.push(path.to_string()),
        }
    }
    if a.len() < 2 || b.len() < 2 {
        return Err("compare needs at least two result files on each side of `--`".to_string());
    }
    let spec_text = std::fs::read_to_string(&spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = serde_json::from_str(&spec_text).map_err(|e| format!("{spec_path}: {e}"))?;
    let bounds = read_bounds(&spec)?;
    let (set_a, set_b) = (read_set(&a)?, read_set(&b)?);

    println!(
        "{:<11} {:<12} {:>36} {:>36} {:>9} {:>6}  verdict",
        "workload", "metric", "A: q1 / median / q3", "B: q1 / median / q3", "B worse", "bound"
    );
    let mut any_worse = false;
    for (workload, metrics_a) in &set_a {
        let Some(metrics_b) = set_b.get(workload) else {
            println!("{workload:<11} (no runs in set B)");
            continue;
        };
        for bound in &bounds {
            let (Some(va), Some(vb)) = (metrics_a.get(&bound.name), metrics_b.get(&bound.name))
            else {
                continue;
            };
            if va.len() < 2 || vb.len() < 2 {
                println!("{workload:<11} {:<12} (fewer than two runs)", bound.name);
                continue;
            }
            let row = judge(va, vb, bound);
            any_worse |= row.verdict == Verdict::Worse;
            let q = |(q1, q2, q3): (f64, f64, f64)| format!("{q1:.5} / {q2:.5} / {q3:.5}");
            println!(
                "{workload:<11} {:<12} {:>36} {:>36} {:>+8.2}% {:>5.0}%  {}",
                bound.name,
                q(row.a),
                q(row.b),
                row.worse_by * 100.0,
                bound.bound * 100.0,
                match row.verdict {
                    Verdict::Pass => "PASS",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "UNRESOLVED",
                }
            );
        }
    }
    if any_worse {
        Err("set B is worse than set A beyond a bound".to_string())
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool, bound: f64) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better: lower,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95];
        // 2 % slower, bound 5 %: pass. 8 % slower: worse.
        let b: Vec<f64> = a.iter().map(|x| x * 1.02).collect();
        assert_eq!(judge(&a, &b, &bound(true, 0.05)).verdict, Verdict::Pass);
        let b: Vec<f64> = a.iter().map(|x| x * 1.08).collect();
        let row = judge(&a, &b, &bound(true, 0.05));
        assert_eq!(row.verdict, Verdict::Worse);
        assert!((row.worse_by - 0.08).abs() < 1e-9);
        // For a higher-is-better metric the same shift is an improvement.
        assert_eq!(judge(&a, &b, &bound(false, 0.05)).verdict, Verdict::Pass);
        let b: Vec<f64> = a.iter().map(|x| x * 0.9).collect();
        assert_eq!(judge(&a, &b, &bound(false, 0.05)).verdict, Verdict::Worse);
    }

    #[test]
    fn a_set_noisier_than_the_bound_is_unresolved_unless_b_always_wins() {
        let noisy = [10.0, 12.0, 8.0, 11.5, 8.5];
        let shifted: Vec<f64> = noisy.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            judge(&noisy, &shifted, &bound(true, 0.05)).verdict,
            Verdict::Unresolved
        );
        let much_better: Vec<f64> = noisy.iter().map(|x| x * 0.5).collect();
        assert_eq!(
            judge(&noisy, &much_better, &bound(true, 0.05)).verdict,
            Verdict::Pass
        );
    }

    #[test]
    fn bounds_come_from_the_spec() {
        let spec = serde_json::from_str(
            r#"{"end_to_end": [{"name": "thru_per_s", "unit": "1/s", "better": "higher", "bound": 0.08}]}"#,
        )
        .unwrap();
        assert_eq!(
            read_bounds(&spec).unwrap(),
            vec![Bound {
                name: "thru_per_s".into(),
                lower_is_better: false,
                bound: 0.08
            }]
        );
        assert!(read_bounds(&serde_json::from_str("{}").unwrap()).is_err());
    }
}
