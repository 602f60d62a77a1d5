//! Fault-armed resilience tests for the batch engine.
//!
//! Arming a fault plan is process-global, so these tests live in their
//! own integration-test binary (one process) and serialize on a local
//! mutex — they must not share a process with the fault-free identity
//! tests.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use dram_core::batch::{EvalEngine, ModelCache};
use dram_core::reference::ddr3_1g_x16_55nm;
use dram_core::ModelError;

fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    dram_faults::disarm();
    guard
}

#[test]
fn injected_build_panic_is_isolated_per_item() {
    let _x = exclusive();
    // Every build panics; evaluate_many must still return one result
    // per input, each carrying the panic as a per-item error.
    dram_faults::arm(&dram_faults::Plan::parse("seed=3;engine.build=panic").expect("spec"));
    let engine = EvalEngine::new().threads(2);
    let descs = vec![ddr3_1g_x16_55nm(); 4];
    let out = engine.evaluate_many(&descs);
    dram_faults::disarm();
    assert_eq!(out.len(), 4);
    for r in &out {
        match r {
            Err(ModelError::Panicked { message }) => {
                assert!(message.contains("engine.build"), "{message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }
    // Panics are transient: they must not be memoized, so the same
    // descriptions evaluate cleanly once the fault is gone.
    let healed = engine.evaluate_many(&descs);
    assert!(healed.iter().all(Result::is_ok));
    assert_eq!(engine.snapshot().error_entries, 0, "no panic memoized");
}

#[test]
fn injected_worker_panic_spares_the_other_items() {
    let _x = exclusive();
    // Exactly one worker visit panics; the other items complete.
    dram_faults::arm(
        &dram_faults::Plan::parse("seed=9;engine.worker=panic:times=1").expect("spec"),
    );
    let engine = EvalEngine::new().threads(3);
    let descs = vec![ddr3_1g_x16_55nm(); 8];
    let out = engine.evaluate_many(&descs);
    let injected = dram_faults::injected_total();
    dram_faults::disarm();
    let panicked = out
        .iter()
        .filter(|r| matches!(r, Err(ModelError::Panicked { .. })))
        .count();
    let ok = out.iter().filter(|r| r.is_ok()).count();
    assert_eq!(panicked, 1, "exactly the injected panic");
    assert_eq!(ok, 7, "every other item evaluated");
    assert_eq!(injected, 1);
}

#[test]
fn injected_build_panic_does_not_poison_the_cache() {
    let _x = exclusive();
    let cache = ModelCache::new();
    dram_faults::arm(&dram_faults::Plan::parse("seed=1;engine.build=panic:times=1").expect("spec"));
    let desc = ddr3_1g_x16_55nm();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = cache.get_or_build(&desc);
    }));
    dram_faults::disarm();
    assert!(
        caught.is_err(),
        "the injected panic unwinds through the cache"
    );
    // The cache stays fully usable afterwards.
    assert!(cache.get_or_build(&desc).is_ok());
    assert_eq!(cache.len(), 1);
}

#[test]
fn disarmed_runs_are_bit_identical_to_an_unfaulted_engine() {
    let _x = exclusive();
    let descs = vec![ddr3_1g_x16_55nm(); 3];
    let engine = EvalEngine::new().threads(2);
    let baseline: Vec<u64> = engine
        .evaluate_many(&descs)
        .into_iter()
        .map(|r| {
            r.expect("builds")
                .energy_per_bit_random()
                .joules()
                .to_bits()
        })
        .collect();

    // Arm, run under a delay fault (values must be unaffected), disarm,
    // run again (must match the baseline bit for bit).
    dram_faults::arm(
        &dram_faults::Plan::parse("seed=5;engine.worker=delay:ms=1:times=2").expect("spec"),
    );
    let faulted = EvalEngine::new().threads(2);
    let under_delay: Vec<u64> = faulted
        .evaluate_many(&descs)
        .into_iter()
        .map(|r| {
            r.expect("builds")
                .energy_per_bit_random()
                .joules()
                .to_bits()
        })
        .collect();
    dram_faults::disarm();
    assert_eq!(baseline, under_delay, "delay faults never change values");

    let clean = EvalEngine::new().threads(2);
    let after: Vec<u64> = clean
        .evaluate_many(&descs)
        .into_iter()
        .map(|r| {
            r.expect("builds")
                .energy_per_bit_random()
                .joules()
                .to_bits()
        })
        .collect();
    assert_eq!(baseline, after);
}

/// A description handed to the cache by value passes the same checks
/// as a borrowed one on its miss: the `engine.build` fault site fires
/// before the build, and the journal notes the miss (and the later hit)
/// under the calling thread's request.
#[test]
fn an_owned_miss_keeps_the_fault_site_and_the_journal_note() {
    use std::borrow::Cow;

    use dram_core::content_key;
    use dram_obs::journal::{self, EventKind};

    let _x = exclusive();
    let cache = ModelCache::new();
    let desc = ddr3_1g_x16_55nm();
    let key = content_key(&desc);
    dram_faults::arm(&dram_faults::Plan::parse("seed=2;engine.build=panic:times=1").expect("spec"));
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = cache.get_or_build_keyed(key, Cow::Owned(desc.clone()));
    }));
    let injected = dram_faults::injected_total();
    dram_faults::disarm();
    assert!(
        caught.is_err(),
        "the injected panic unwinds through an owned miss"
    );
    assert_eq!(injected, 1);
    assert!(cache.is_empty(), "a panicked build files nothing");

    journal::configure(64);
    journal::set_context(7, 4242);
    let (built, hit) = cache
        .get_or_build_keyed(key, Cow::Owned(desc.clone()))
        .expect("builds");
    let (cached, again) = cache
        .get_or_build_keyed(key, Cow::Borrowed(&desc))
        .expect("hits");
    journal::set_context(0, 0);
    let kinds: Vec<EventKind> = journal::events_for_request(4242)
        .iter()
        .map(|e| e.kind)
        .collect();
    journal::configure(0);
    assert!(!hit && again && std::sync::Arc::ptr_eq(&built, &cached));
    assert_eq!(kinds, [EventKind::CacheMiss, EventKind::CacheHit]);
}
