//! `core::par` at 1 and 4 workers: `par_map` returns results in
//! submission order, runs every item even when some panic and then hands
//! the caller the lowest-index item's own payload; `run_cell` retries a
//! panicking cell once with the same label and seed, then quarantines it;
//! and a sanitizer report raised anywhere inside a cell, `par_map` items
//! included, names that cell.
//!
//! Every test holds `par::override_guard`: the worker count and the
//! sanitizer switch are process-global.

use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use visionsim::core::par::{self, derive_seed, par_map, run_cell};
use visionsim::core::rng::SimRng;
use visionsim::core::sanitizer;

/// Run `check` once per worker count, holding the override guard.
fn at_1_and_4_workers(check: impl Fn(usize)) {
    let _guard = par::override_guard();
    for workers in [1, 4] {
        par::set_threads(Some(workers));
        check(workers);
    }
    par::set_threads(None);
}

/// A panic payload no formatting could produce: the caller must receive
/// the item's own value.
#[derive(Debug, PartialEq)]
struct Payload(u64);

#[test]
fn par_map_returns_results_in_submission_order() {
    // Items cost different amounts, so at 4 workers they finish out of
    // submission order.
    let work = |i: u64| {
        let mut rng = SimRng::seed_from_u64(derive_seed(7, "par_props", i));
        (0..1 + (i % 13) * 40).map(|_| rng.uniform()).sum::<f64>()
    };
    let items: Vec<u64> = (0..257).collect();
    let sequential: Vec<f64> = items.iter().copied().map(work).collect();
    at_1_and_4_workers(|workers| {
        assert_eq!(
            par_map(items.clone(), work),
            sequential,
            "{workers} workers"
        );
        assert!(par_map(Vec::<u64>::new(), work).is_empty());
    });
}

#[test]
fn every_item_runs_and_the_lowest_index_panic_reaches_the_caller() {
    at_1_and_4_workers(|workers| {
        let ran = AtomicUsize::new(0);
        let nine_panicked = AtomicBool::new(false);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            par_map((0..12u64).collect(), |i| {
                ran.fetch_add(1, Ordering::SeqCst);
                match i {
                    // At 4 workers, item 5 waits until item 9 has
                    // panicked on another thread.
                    5 => {
                        while workers > 1 && !nine_panicked.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        panic_any(Payload(5))
                    }
                    9 => {
                        nine_panicked.store(true, Ordering::SeqCst);
                        panic_any(Payload(9))
                    }
                    _ => i,
                }
            })
        }))
        .expect_err("a panicking item must reach the caller");
        assert_eq!(
            ran.load(Ordering::SeqCst),
            12,
            "{workers} workers: every item runs"
        );
        assert_eq!(
            payload.downcast_ref::<Payload>(),
            Some(&Payload(5)),
            "{workers} workers"
        );
    });
}

#[test]
fn run_cell_retries_once_with_the_same_label_and_seed_then_quarantines() {
    at_1_and_4_workers(|workers| {
        sanitizer::force(Some(true));
        sanitizer::reset();

        // A transient panic: the retry succeeds.
        let attempts = AtomicUsize::new(0);
        let out = run_cell("figure6", 2024, || {
            sanitizer::report("test/attempt", String::new());
            if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient failure");
            }
            par_map(vec![1u64, 2, 3], |x| x * 2)
        });
        assert_eq!(out.expect("the retry succeeds"), [2, 4, 6]);
        assert_eq!(attempts.load(Ordering::SeqCst), 2, "{workers} workers");

        // A persistent panic: quarantined after one retry.
        let attempts = AtomicUsize::new(0);
        let err = run_cell("figure5", 7, || {
            sanitizer::report("test/attempt", String::new());
            attempts.fetch_add(1, Ordering::SeqCst);
            panic!("persistent failure")
        })
        .expect_err("both attempts panic");
        assert_eq!(attempts.load(Ordering::SeqCst), 2, "{workers} workers");
        assert_eq!((err.label.as_str(), err.seed), ("figure5", 7));
        assert_eq!(err.payload, "persistent failure");
        assert!(err.to_string().contains("seed 7"), "{err}");

        // Each attempt ran under its cell's label and seed.
        let tags: Vec<(Option<String>, Option<u64>)> = sanitizer::take()
            .into_iter()
            .map(|v| (v.label, v.seed))
            .collect();
        sanitizer::force(None);
        sanitizer::reset();
        let figure6 = (Some("figure6".to_string()), Some(2024));
        let figure5 = (Some("figure5".to_string()), Some(7));
        assert_eq!(tags, [figure6.clone(), figure6, figure5.clone(), figure5]);
    });
}

#[test]
fn sanitizer_reports_before_inside_and_after_par_map_name_the_enclosing_cell() {
    at_1_and_4_workers(|workers| {
        sanitizer::force(Some(true));
        sanitizer::reset();
        run_cell("figure6", 2024, || {
            sanitizer::report("test/before", String::new());
            par_map((0..8u64).collect(), |i| {
                sanitizer::report("test/inside", format!("item {i}"));
            });
            sanitizer::report("test/after", String::new());
        })
        .expect("the cell does not panic");
        let reports = sanitizer::take();
        sanitizer::force(None);
        sanitizer::reset();
        assert_eq!(reports.len(), 10, "{workers} workers");
        for v in &reports {
            assert_eq!(
                (v.label.as_deref(), v.seed),
                (Some("figure6"), Some(2024)),
                "{workers} workers: {v}"
            );
        }
    });
}
