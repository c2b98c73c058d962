//! The per-op checks catch corrupted outputs, and the schedule workload
//! reproduces the sweep's numbers.

use mf_bench::scenarios::{synth_nd_tree, SynthConfig};
use mf_bench::sweep::sweep_cell;
use mf_core::mapping::compute_mapping;
use mf_core::parsim;
use mf_frontal::Factorization;
use mf_order::OrderingKind::{Amd, Metis};
use mf_sparse::gen::grid::{grid2d, Stencil};
use mf_sparse::gen::paper::ALL_PAPER_MATRICES;
use mf_symbolic::AmalgamationOptions;
use perfbench::trace::Tracer;
use perfbench::workloads::{
    check_repeat, check_schedule, check_solution, schedule_configs, schedule_trees, Schedule,
    Workload, NPROCS,
};

#[test]
fn a_corrupted_solution_fails_its_check() {
    let a = grid2d(12, 12, Stencil::Star);
    let f = Factorization::new(&a, &Amd.compute(&a), &AmalgamationOptions::default()).unwrap();
    let b = vec![1.0; a.nrows()];
    let mut x = f.solve(&b);
    assert_eq!(check_solution(&a, &x, &b), None);
    x[5] += 1e-6;
    assert!(check_solution(&a, &x, &b).is_some(), "a perturbed entry must fail");
    x[5] = f64::NAN;
    assert!(check_solution(&a, &x, &b).is_some(), "NaN must fail");
}

#[test]
fn a_corrupted_schedule_fails_its_check() {
    let tree = synth_nd_tree(&SynthConfig::smoke(1));
    let (_, mem) = schedule_configs();
    let run = || parsim::run(&tree, &compute_mapping(&tree, &mem), &mem);
    assert_eq!(check_schedule(&run()), None);

    let mut r = run();
    r.as_mut().unwrap().nodes_done -= 1;
    assert!(check_schedule(&r).is_some(), "an unfinished front must fail");
    let mut r = run();
    r.as_mut().unwrap().final_active[3] = 1;
    assert!(check_schedule(&r).is_some(), "memory left allocated must fail");
    let mut r = run();
    r.as_mut().unwrap().underflows[0] = 2;
    assert!(check_schedule(&r).is_some(), "an underflow must fail");
}

#[test]
fn an_output_that_differs_from_the_warm_up_fails() {
    let mut reference = None;
    assert_eq!(check_repeat("digest", &mut reference, 7u64), None, "the warm-up stores");
    assert_eq!(check_repeat("digest", &mut reference, 7u64), None);
    assert!(check_repeat("digest", &mut reference, 8u64).is_some());
    assert_eq!(reference, Some(7), "the reference stays the warm-up's");
}

#[test]
fn schedule_peak_matches_the_sweep_at_seed_zero() {
    let mut w = Schedule::new(schedule_trees(0));
    w.op(&mut Tracer::new(false));
    let mut expected = 0u64;
    for m in ALL_PAPER_MATRICES {
        for k in [Amd, Metis] {
            expected += sweep_cell(m, k, NPROCS, None, false).memory.max_peak;
        }
    }
    let synth = perfbench::inputs::synth_tree(0);
    let (_, mem) = schedule_configs();
    expected += parsim::run(&synth, &compute_mapping(&synth, &mem), &mem).unwrap().max_peak;
    assert_eq!(w.memory().peak_entries, expected as f64);
}
