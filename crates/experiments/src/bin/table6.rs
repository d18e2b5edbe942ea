//! Regenerates Table 6 (independent release failures); `--calibrated`
//! as for `table5`. The step is defined in `wsu_experiments::suite`.

fn main() {
    wsu_experiments::suite::step_main("table6");
}
