//! Runs the ablation studies (DESIGN.md) and prints one table each.
//! The step is defined in `wsu_experiments::suite`.

fn main() {
    wsu_experiments::suite::step_main("ablations");
}
