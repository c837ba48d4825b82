//! Regenerates **Table III**: overall performance in the three cold-start
//! scenarios on the MovieLens-1M stand-in (HIRE vs all baselines,
//! Precision/NDCG/MAP @ 5/7/10).

use hire_eval::{run_overall_table, DatasetKind};

fn main() {
    run_overall_table(DatasetKind::MovieLens, "Table III (MovieLens-1M synthetic)");
}
