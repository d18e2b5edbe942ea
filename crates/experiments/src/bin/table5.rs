//! Regenerates Table 5 (correlated release failures); `--calibrated`
//! uses the execution-time model whose unconditional MET matches the
//! paper's reported values (see EXPERIMENTS.md). The step is defined in
//! `wsu_experiments::suite`.

fn main() {
    wsu_experiments::suite::step_main("table5");
}
