//! Runs the fleet study and prints the per-cell recovery table;
//! `--cell NAME` (repeatable) narrows it to the named cells, and
//! `--serve-metrics` also serves the per-cell results on `/snapshot`.
//! The step is defined in `wsu_experiments::suite`.

fn main() {
    wsu_experiments::suite::step_main("fleetstudy");
}
