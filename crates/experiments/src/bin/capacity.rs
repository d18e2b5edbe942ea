//! Runs the server-capacity study (extension E6): parallel vs
//! sequential dispatch under open Poisson arrivals. The step is defined
//! in `wsu_experiments::suite`.

fn main() {
    wsu_experiments::suite::step_main("capacity");
}
