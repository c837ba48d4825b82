//! Regenerates **Table IV**: overall performance on the Bookcrossing
//! stand-in.

use hire_eval::{run_overall_table, DatasetKind};

fn main() {
    run_overall_table(
        DatasetKind::Bookcrossing,
        "Table IV (Bookcrossing synthetic)",
    );
}
