//! Asserts that demand planning never touches the heap: every
//! [`DemandPlanner::plan`] call — correlated and independent outcome
//! generators, paper and calibrated timing, from the very first demand
//! — makes zero allocations, and [`DemandPlanner::plan_batch`] makes
//! exactly one (the returned `Vec`).
//!
//! A counting `#[global_allocator]` wraps the system allocator. The
//! counter is a const-initialised thread-local, so allocations made by
//! the libtest harness threads (which run concurrently with the test
//! thread) never pollute the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wsu_simcore::rng::StreamRng;
use wsu_workload::demand::DemandPlanner;
use wsu_workload::outcomes::{CorrelatedOutcomes, IndependentOutcomes, OutcomePairGen};
use wsu_workload::runs::RunSpec;
use wsu_workload::timing::ExecTimeModel;

thread_local! {
    // `const` initialisation: reading or bumping the counter never
    // allocates, so the allocator hooks cannot recurse.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts an allocation on the current thread. `try_with` tolerates
/// the TLS destructor window during thread teardown.
fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counter is a
// plain thread-local increment with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const DEMANDS: usize = 5_000;

/// Allocations made by `DEMANDS` consecutive `plan` calls on a fresh
/// planner, and the sum of the planned sequence numbers (so the calls
/// cannot be optimised away).
fn plan_allocations(outcomes: &dyn OutcomePairGen, timing: ExecTimeModel) -> (u64, u64) {
    let mut planner = DemandPlanner::new(outcomes, timing);
    let mut rng = StreamRng::from_seed(7);
    let before = allocation_count();
    let mut seqs = 0;
    for _ in 0..DEMANDS {
        seqs += std::hint::black_box(planner.plan(&mut rng)).seq;
    }
    (allocation_count() - before, seqs)
}

#[test]
fn planning_a_demand_does_not_allocate() {
    let expected_seqs = (DEMANDS as u64 - 1) * DEMANDS as u64 / 2;
    for spec in RunSpec::all() {
        let correlated = CorrelatedOutcomes::from_run(&spec);
        let independent = IndependentOutcomes::from_run(&spec);
        for timing in [ExecTimeModel::paper(), ExecTimeModel::calibrated()] {
            for (label, outcomes) in [
                ("correlated", &correlated as &dyn OutcomePairGen),
                ("independent", &independent),
            ] {
                let (allocs, seqs) = plan_allocations(outcomes, timing);
                assert_eq!(seqs, expected_seqs);
                assert_eq!(
                    allocs, 0,
                    "run {} {label}: {allocs} allocations over {DEMANDS} planned demands",
                    spec.run
                );
            }
        }
    }
}

#[test]
fn planning_a_batch_allocates_only_its_vec() {
    let outcomes = CorrelatedOutcomes::from_run(&RunSpec::run1());
    let mut planner = DemandPlanner::new(&outcomes, ExecTimeModel::paper());
    let mut rng = StreamRng::from_seed(8);
    let before = allocation_count();
    let batch = planner.plan_batch(DEMANDS, &mut rng);
    let allocs = allocation_count() - before;
    assert_eq!(batch.len(), DEMANDS);
    assert_eq!(allocs, 1, "{allocs} allocations for one batch");
}
