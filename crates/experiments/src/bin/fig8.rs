//! Regenerates Fig. 8 (Scenario 2 percentile curves) as a TSV table.
//! The step is defined in `wsu_experiments::suite`.

fn main() {
    wsu_experiments::suite::step_main("fig8");
}
