//! Regenerates **Table II** (dataset profiles) for the three synthetic
//! stand-in datasets.

use hire_eval::{dataset_for, DatasetKind, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse();
    println!("# Table II: Profile of Datasets (synthetic stand-ins)\n");
    println!(
        "{:<28}{:>10}{:>10}{:>12}{:>12}{:>24}{:>28}",
        "Dataset", "#Users", "#Items", "#Ratings", "Range", "User attributes", "Item attributes"
    );
    let mut profiles = Vec::new();
    for kind in [
        DatasetKind::MovieLens,
        DatasetKind::Douban,
        DatasetKind::Bookcrossing,
    ] {
        let d = dataset_for(kind, args.tier, args.seed);
        let p = d.profile();
        println!(
            "{:<28}{:>10}{:>10}{:>12}{:>12}{:>24}{:>28}",
            p.name,
            p.num_users,
            p.num_items,
            p.num_ratings,
            format!("{}~{}", p.rating_range.0, p.rating_range.1),
            if p.user_attributes.is_empty() {
                "N/A".to_string()
            } else {
                p.user_attributes.join(",")
            },
            if p.item_attributes.is_empty() {
                "N/A".to_string()
            } else {
                p.item_attributes.join(",")
            },
        );
        profiles.push(p);
    }
    println!("\n(paper scale: 6040x3706/1.0M, 23822x185574/1.39M, 278858x271379/1.15M;");
    println!(
        " ours are scaled-down generators with the same schema/scale structure — DESIGN.md §2)"
    );
}
