//! Runs the fault-injection campaign and prints the per-plan
//! detection-coverage table; `--plan NAME` (repeatable) narrows it to the
//! named plans, and `--serve-metrics` also serves the per-plan
//! dependability snapshots on `/snapshot`. The step is defined in
//! `wsu_experiments::suite`.

fn main() {
    wsu_experiments::suite::step_main("faultcampaign");
}
