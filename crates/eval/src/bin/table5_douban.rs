//! Regenerates **Table V**: overall performance on the Douban stand-in
//! (includes the GraphRec social baseline).

use hire_eval::{run_overall_table, DatasetKind};

fn main() {
    run_overall_table(DatasetKind::Douban, "Table V (Douban synthetic)");
}
