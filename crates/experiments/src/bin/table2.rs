//! Regenerates Table 2 (duration of managed upgrade). `--seeds N`
//! adds the spread of every cell across N seeds, the first of which is
//! the table's own. The step is defined in `wsu_experiments::suite`.

fn main() {
    wsu_experiments::suite::step_main("table2");
}
