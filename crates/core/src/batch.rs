//! Parallel batch evaluation with memoized model construction.
//!
//! Every analysis in the workspace — sensitivity sweeps, roadmap walks,
//! scheme ablations, report regeneration — reduces to "build a [`Dram`]
//! per description variant and read numbers off it". This module gives
//! those loops two shared mechanisms:
//!
//! * [`EvalEngine::map`], a scoped-thread worker pool (no external
//!   dependency; the workspace must stay resolvable offline) with a
//!   chunked work queue. Results are placed **per input index**, never
//!   first-come-first-serve, so parallel output is bit-identical to the
//!   serial path whatever the thread interleaving. `threads(1)` runs the
//!   plain serial loop with no pool at all.
//! * [`ModelCache`], a memoizing store keyed by a content hash of the
//!   full [`DramDescription`] (floats hashed by bit pattern) that
//!   returns [`Arc<Dram>`]. Baselines shared by sweep, interaction,
//!   ablation and report code are built once per process instead of once
//!   per call site. Hash collisions are resolved by full structural
//!   comparison, so a collision can cost a lookup, never correctness.
//!
//! ```
//! use std::sync::Arc;
//!
//! use dram_core::batch::EvalEngine;
//! use dram_core::reference::ddr3_1g_x16_55nm;
//!
//! let engine = EvalEngine::new();
//! let desc = ddr3_1g_x16_55nm();
//! // Built once up front: parallel workers racing on a cold key would
//! // each count a miss.
//! let first = engine.model(&desc).expect("reference description builds");
//! let models = engine.evaluate_many(&vec![desc; 4]);
//! // Identical descriptions share one cached model.
//! let stats = engine.cache_stats();
//! assert_eq!((stats.misses, stats.hits), (1, 4));
//! for model in models {
//!     assert!(Arc::ptr_eq(&model.expect("cache hit"), &first));
//! }
//! ```

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::charges::{ChargeBatch, ChargeModel};
use crate::geometry::Geometry;
use crate::params::{
    ActiveDuring, DramDescription, Electrical, LogicBlock, PhysicalFloorplan, SegmentSpec,
    SignalingFloorplan, Specification, Technology, Timing, WireCount,
};
use crate::perturb::{BuildPhase, Perturbation};
use crate::{Dram, ModelError, PowerSummary};

/// Hashes an `f64` by bit pattern (`-0.0` and `0.0` hash differently;
/// that only risks a duplicate cache entry, never a wrong hit).
fn hash_f64<H: Hasher>(h: &mut H, v: f64) {
    h.write_u64(v.to_bits());
}

fn hash_floorplan<H: Hasher>(h: &mut H, fp: &PhysicalFloorplan) {
    fp.bitline_direction.hash(h);
    fp.bits_per_bitline.hash(h);
    fp.bits_per_local_wordline.hash(h);
    fp.bitline_architecture.hash(h);
    fp.blocks_per_csl.hash(h);
    hash_f64(h, fp.wordline_pitch.meters());
    hash_f64(h, fp.bitline_pitch.meters());
    hash_f64(h, fp.sa_stripe_width.meters());
    hash_f64(h, fp.lwd_stripe_width.meters());
    fp.horizontal_blocks.hash(h);
    fp.vertical_blocks.hash(h);
    // BTreeMap iterates in key order: deterministic.
    for (name, size) in &fp.horizontal_sizes {
        name.hash(h);
        hash_f64(h, size.meters());
    }
    for (name, size) in &fp.vertical_sizes {
        name.hash(h);
        hash_f64(h, size.meters());
    }
}

fn hash_signaling<H: Hasher>(h: &mut H, sig: &SignalingFloorplan) {
    h.write_usize(sig.signals.len());
    for s in &sig.signals {
        s.name.hash(h);
        s.class.hash(h);
        match s.wires {
            WireCount::Explicit(n) => (0u8, n).hash(h),
            WireCount::PerIo => 1u8.hash(h),
            WireCount::RowAddressBits => 2u8.hash(h),
            WireCount::ColumnAddressBits => 3u8.hash(h),
            WireCount::BankAddressBits => 4u8.hash(h),
            WireCount::ControlSignals => 5u8.hash(h),
            WireCount::ClockWires => 6u8.hash(h),
        }
        hash_f64(h, s.toggle_rate);
        h.write_usize(s.segments.len());
        for seg in &s.segments {
            match seg {
                SegmentSpec::Between { from, to, buffer } => {
                    0u8.hash(h);
                    from.hash(h);
                    to.hash(h);
                    h.write_u8(u8::from(buffer.is_some()));
                    if let Some(b) = buffer {
                        hash_f64(h, b.nmos_width.meters());
                        hash_f64(h, b.pmos_width.meters());
                    }
                }
                SegmentSpec::Inside {
                    at,
                    fraction,
                    dir,
                    buffer,
                    mux,
                } => {
                    1u8.hash(h);
                    at.hash(h);
                    hash_f64(h, *fraction);
                    dir.hash(h);
                    h.write_u8(u8::from(buffer.is_some()));
                    if let Some(b) = buffer {
                        hash_f64(h, b.nmos_width.meters());
                        hash_f64(h, b.pmos_width.meters());
                    }
                    mux.hash(h);
                }
            }
        }
    }
}

fn hash_technology<H: Hasher>(h: &mut H, t: &Technology) {
    for v in [
        t.tox_logic.meters(),
        t.tox_high_voltage.meters(),
        t.tox_cell.meters(),
        t.lmin_logic.meters(),
        t.junction_cap_logic.farads_per_meter(),
        t.lmin_high_voltage.meters(),
        t.junction_cap_high_voltage.farads_per_meter(),
        t.cell_access_length.meters(),
        t.cell_access_width.meters(),
        t.bitline_cap.farads(),
        t.cell_cap.farads(),
        t.bl_to_wl_cap_share,
        t.c_wire_mwl.farads_per_meter(),
        t.mwl_predecode_ratio,
        t.mwl_decoder_nmos_width.meters(),
        t.mwl_decoder_pmos_width.meters(),
        t.mwl_decoder_switching,
        t.wl_controller_nmos_width.meters(),
        t.wl_controller_pmos_width.meters(),
        t.swd_nmos_width.meters(),
        t.swd_pmos_width.meters(),
        t.swd_restore_nmos_width.meters(),
        t.c_wire_lwl.farads_per_meter(),
        t.c_wire_signal.farads_per_meter(),
    ] {
        hash_f64(h, v);
    }
    t.bits_per_csl_per_subarray.hash(h);
    for d in [
        t.sa_nmos_sense,
        t.sa_pmos_sense,
        t.sa_equalize,
        t.sa_bit_switch,
        t.sa_bitline_mux,
        t.sa_nset,
        t.sa_pset,
    ] {
        hash_f64(h, d.width.meters());
        hash_f64(h, d.length.meters());
    }
}

fn hash_electrical<H: Hasher>(h: &mut H, e: &Electrical) {
    for v in [
        e.vdd.volts(),
        e.vint.volts(),
        e.vbl.volts(),
        e.vpp.volts(),
        e.eff_vint,
        e.eff_vbl,
        e.eff_vpp,
        e.constant_current.amperes(),
    ] {
        hash_f64(h, v);
    }
}

fn hash_spec<H: Hasher>(h: &mut H, s: &Specification) {
    s.io_width.hash(h);
    hash_f64(h, s.datarate_per_pin.bits_per_second());
    s.clock_wires.hash(h);
    hash_f64(h, s.data_clock.hertz());
    hash_f64(h, s.control_clock.hertz());
    s.bank_address_bits.hash(h);
    s.row_address_bits.hash(h);
    s.column_address_bits.hash(h);
    s.control_signals.hash(h);
    s.prefetch.hash(h);
    s.burst_length.hash(h);
}

fn hash_timing<H: Hasher>(h: &mut H, t: &Timing) {
    for v in [
        t.trc.seconds(),
        t.tras.seconds(),
        t.trp.seconds(),
        t.trcd.seconds(),
        t.trrd.seconds(),
        t.tfaw.seconds(),
        t.trfc.seconds(),
        t.trefi.seconds(),
    ] {
        hash_f64(h, v);
    }
    t.tccd_cycles.hash(h);
}

fn hash_logic_block<H: Hasher>(h: &mut H, b: &LogicBlock) {
    b.name.hash(h);
    b.gates.hash(h);
    hash_f64(h, b.avg_nmos_width.meters());
    hash_f64(h, b.avg_pmos_width.meters());
    hash_f64(h, b.transistors_per_gate);
    hash_f64(h, b.gate_density);
    hash_f64(h, b.wiring_density);
    let ActiveDuring {
        always,
        activate,
        precharge,
        read,
        write,
    } = b.active_during;
    (always, activate, precharge, read, write).hash(h);
    hash_f64(h, b.toggle_rate);
}

/// A [`Hasher`] with a pinned algorithm (64-bit FNV-1a) and pinned
/// integer encodings (fixed-width little-endian; `usize`/`isize` widened
/// to 64 bits). Unlike
/// [`DefaultHasher`](std::collections::hash_map::DefaultHasher), whose
/// keys are only guaranteed stable within one process, `StableHasher`
/// produces the same digest for the same byte stream in every process,
/// on every platform — the property [`content_key`] needs so a router
/// and its backend pool agree on ring placement without exchanging
/// hashes.
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

impl StableHasher {
    /// FNV-1a offset basis.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV-1a prime.
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        StableHasher(Self::OFFSET)
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }

    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    // usize/isize are widened to 64 bits so 32- and 64-bit builds hash
    // identically.
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }

    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }

    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }

    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }

    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as u64);
    }
}

/// Walks every field of a description into `h`, floats by bit pattern.
fn hash_description<H: Hasher>(h: &mut H, desc: &DramDescription) {
    desc.name.hash(h);
    hash_floorplan(h, &desc.floorplan);
    hash_signaling(h, &desc.signaling);
    hash_technology(h, &desc.technology);
    hash_electrical(h, &desc.electrical);
    hash_spec(h, &desc.spec);
    hash_timing(h, &desc.timing);
    h.write_usize(desc.logic_blocks.len());
    for b in &desc.logic_blocks {
        hash_logic_block(h, b);
    }
}

/// The description's *content key*: a cross-process-stable 64-bit digest
/// over every field, with floats hashed by bit pattern. Two descriptions
/// that compare equal key equal; the converse is enforced by structural
/// comparison at cache-lookup time.
///
/// This is the shard-routing key: `dram-route` hashes it onto the
/// consistent-hash ring and [`ModelCache`] buckets by it, so a given
/// device always lands on the node whose model cache is hot for it. The
/// algorithm (FNV-1a via [`StableHasher`], fixed field walk) is part of
/// the on-the-wire contract — a silent change re-maps every ring slice —
/// and is pinned by a golden-value test.
#[must_use]
pub fn content_key(desc: &DramDescription) -> u64 {
    let mut h = StableHasher::new();
    hash_description(&mut h, desc);
    h.finish()
}

/// Hit/miss counters of a [`ModelCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build a model.
    pub misses: u64,
}

/// A point-in-time view of an [`EvalEngine`], cheap to take on a shared
/// (e.g. [`EvalEngine::global`]) instance.
///
/// This is the shape a metrics endpoint wants: counters plus sizing, no
/// references into the engine, safe to serialize after the lock is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineSnapshot {
    /// Lookups served from the model cache.
    pub hits: u64,
    /// Lookups that had to build a model.
    pub misses: u64,
    /// Models currently held by the cache.
    pub entries: usize,
    /// Configured worker-thread count.
    pub threads: usize,
    /// Lookups answered from the negative (known-bad) cache.
    pub error_hits: u64,
    /// Known-bad descriptions currently memoized.
    pub error_entries: usize,
}

impl EngineSnapshot {
    /// Cache hit rate in `[0, 1]`; `0` before any lookup.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One hash bucket: every cached model whose description's content hash
/// collides. A model holds its description as it was built from, so the
/// bucket compares against [`Dram::description`] and keeps no copy.
type Bucket = Vec<Arc<Dram>>;

/// Capacity of the negative cache: enough to absorb a retry storm of
/// known-bad descriptions, small enough that a hostile client cycling
/// unique bad inputs cannot grow memory without bound.
const ERROR_CACHE_CAP: usize = 256;

/// Bounded FIFO of validation failures, keyed like the positive cache
/// (content hash, collision-checked structurally). Only *validation*
/// errors land here — a panic caught around an evaluation is transient
/// by definition and must not be memoized.
#[derive(Debug, Default)]
struct ErrorCache {
    buckets: HashMap<u64, Vec<(DramDescription, ModelError)>>,
    /// Insertion order of keys, one entry per cached error, for FIFO
    /// eviction at [`ERROR_CACHE_CAP`].
    order: VecDeque<u64>,
}

impl ErrorCache {
    fn lookup(&self, key: u64, desc: &DramDescription) -> Option<ModelError> {
        self.buckets
            .get(&key)?
            .iter()
            .find(|(d, _)| d == desc)
            .map(|(_, e)| e.clone())
    }

    fn remember(&mut self, key: u64, desc: &DramDescription, err: &ModelError) {
        let bucket = self.buckets.entry(key).or_default();
        if bucket.iter().any(|(d, _)| d == desc) {
            return;
        }
        bucket.push((desc.clone(), err.clone()));
        self.order.push_back(key);
        while self.order.len() > ERROR_CACHE_CAP {
            let evict = self.order.pop_front().expect("order non-empty");
            if let Some(bucket) = self.buckets.get_mut(&evict) {
                if !bucket.is_empty() {
                    bucket.remove(0);
                }
                if bucket.is_empty() {
                    self.buckets.remove(&evict);
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.order.len()
    }
}

/// A memoizing store of built models keyed by description content.
///
/// Thread-safe; lookups hold the lock only for the bucket scan, model
/// construction runs outside it so concurrent builders do not serialize.
/// Validation failures are memoized too, in a bounded negative cache, so
/// a client retrying a known-bad description fails fast instead of
/// re-running validation each time.
///
/// Locks are poison-tolerant: request handling upstream catches panics,
/// so a panic unwinding past a lock holder must not turn every later
/// cache access into a second panic.
#[derive(Debug, Default)]
pub struct ModelCache {
    buckets: Mutex<HashMap<u64, Bucket>>,
    errors: Mutex<ErrorCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    error_hits: AtomicU64,
}

impl ModelCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached model for `desc`, building and inserting it on
    /// first sight.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the description fails validation.
    pub fn get_or_build(&self, desc: &DramDescription) -> Result<Arc<Dram>, ModelError> {
        self.get_or_build_keyed(content_key(desc), Cow::Borrowed(desc))
            .map(|(model, _)| model)
    }

    /// [`ModelCache::get_or_build`] under a key the caller already holds,
    /// such as a named preset's, so a hit hashes nothing; also reports
    /// whether the lookup was a cache hit (`true`) or had to build
    /// (`false`), which the aggregate [`ModelCache::stats`] counters
    /// cannot attribute to concurrent callers.
    ///
    /// The description comes by value or by reference. A miss runs the
    /// build phases that can fail on the borrow, so a failed description
    /// is still filed in the negative cache; only then does the model
    /// take it, moving an owned one in and cloning a borrowed one. A
    /// description parsed for this call should come owned: its miss then
    /// copies nothing.
    ///
    /// `key` must be `content_key(desc)`; debug builds assert it. Any
    /// other key files the model in the wrong bucket: a later lookup
    /// under the right key misses and builds it again.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the description fails validation.
    pub fn get_or_build_keyed(
        &self,
        key: u64,
        desc: Cow<'_, DramDescription>,
    ) -> Result<(Arc<Dram>, bool), ModelError> {
        debug_assert_eq!(key, content_key(&desc), "a cache key is the content key");
        let cached = {
            let _s = dram_obs::span("engine.cache_lookup");
            self.lookup(key, &desc)
        };
        if let Some(hit) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            dram_obs::journal::note(dram_obs::journal::EventKind::CacheHit, 0);
            return Ok((hit, true));
        }
        let known_bad = self
            .errors
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .lookup(key, &desc);
        if let Some(err) = known_bad {
            self.error_hits.fetch_add(1, Ordering::Relaxed);
            return Err(err);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        dram_obs::journal::note(dram_obs::journal::EventKind::CacheMiss, 0);
        // Fault site outside every lock: an injected build panic unwinds
        // without poisoning either cache map.
        dram_faults::trip("engine.build");
        let built = {
            let _build = dram_obs::span("model.build");
            match Dram::check(&desc) {
                Ok(geom) => Arc::new(Dram::assemble(desc.into_owned(), geom)),
                Err(err) => {
                    self.errors
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .remember(key, &desc, &err);
                    return Err(err);
                }
            }
        };
        let mut buckets = self.buckets.lock().unwrap_or_else(PoisonError::into_inner);
        let bucket = buckets.entry(key).or_default();
        // A concurrent builder may have won the race; keep its model so
        // every caller shares one allocation. This call still built a
        // model, so it reports a miss either way.
        if let Some(existing) = bucket
            .iter()
            .find(|m| m.description() == built.description())
        {
            return Ok((Arc::clone(existing), false));
        }
        bucket.push(Arc::clone(&built));
        Ok((built, false))
    }

    fn lookup(&self, key: u64, desc: &DramDescription) -> Option<Arc<Dram>> {
        let buckets = self.buckets.lock().unwrap_or_else(PoisonError::into_inner);
        buckets
            .get(&key)?
            .iter()
            .find(|m| m.description() == desc)
            .map(Arc::clone)
    }

    /// Current hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Lookups answered from the negative cache (fail-fast rejections of
    /// descriptions already known bad).
    #[must_use]
    pub fn error_hits(&self) -> u64 {
        self.error_hits.load(Ordering::Relaxed)
    }

    /// Known-bad descriptions currently memoized.
    #[must_use]
    pub fn error_len(&self) -> usize {
        self.errors
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Drops every cached model and memoized error and resets the
    /// counters.
    pub fn clear(&self) {
        self.buckets
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        *self.errors.lock().unwrap_or_else(PoisonError::into_inner) = ErrorCache::default();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.error_hits.store(0, Ordering::Relaxed);
    }

    /// Number of cached models.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buckets
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A batch-evaluation engine: worker pool plus model cache.
///
/// Construct once, share by reference. The thread count defaults to the
/// machine's available parallelism; [`EvalEngine::threads`] overrides it
/// and `threads(1)` selects the plain serial loop (no pool, no queue).
#[derive(Debug)]
pub struct EvalEngine {
    threads: usize,
    cache: ModelCache,
}

impl Default for EvalEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalEngine {
    /// An engine sized to the machine's available parallelism.
    #[must_use]
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        Self {
            threads,
            cache: ModelCache::new(),
        }
    }

    /// Overrides the worker count. `1` selects the serial path; values
    /// above the input length are clamped per call.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// The configured worker count.
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// The engine's model cache.
    #[must_use]
    pub fn cache(&self) -> &ModelCache {
        &self.cache
    }

    /// Hit/miss counters of the model cache.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// A point-in-time snapshot of the engine: cache counters, cache
    /// size and thread count. Works on any shared reference, so the
    /// process-wide [`EvalEngine::global`] instance can feed a metrics
    /// endpoint without owning the engine.
    #[must_use]
    pub fn snapshot(&self) -> EngineSnapshot {
        let stats = self.cache.stats();
        EngineSnapshot {
            hits: stats.hits,
            misses: stats.misses,
            entries: self.cache.len(),
            threads: self.threads,
            error_hits: self.cache.error_hits(),
            error_entries: self.cache.error_len(),
        }
    }

    /// Builds (or fetches) the model for one description.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the description fails validation.
    pub fn model(&self, desc: &DramDescription) -> Result<Arc<Dram>, ModelError> {
        self.cache.get_or_build(desc)
    }

    /// Like [`EvalEngine::model`], under a key the caller already holds
    /// (`key` must be `content_key(desc)`) and with the description by
    /// value or by reference, and also reports whether the model came
    /// from the cache (`true`) or was built by this call (`false`). See
    /// [`ModelCache::get_or_build_keyed`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the description fails validation.
    pub fn model_keyed(
        &self,
        key: u64,
        desc: Cow<'_, DramDescription>,
    ) -> Result<(Arc<Dram>, bool), ModelError> {
        self.cache.get_or_build_keyed(key, desc)
    }

    /// Builds models for a batch of descriptions, in parallel, memoized.
    ///
    /// `out[i]` is the model for `descs[i]`; order is the input order
    /// regardless of thread count. Duplicate descriptions share one
    /// cached model.
    ///
    /// A panic while evaluating one item is isolated to that item: it
    /// becomes [`ModelError::Panicked`] in that slot, the rest of the
    /// batch completes normally. (The lower-level [`EvalEngine::map`]
    /// keeps the propagate-panics contract for library callers.)
    pub fn evaluate_many(&self, descs: &[DramDescription]) -> Vec<Result<Arc<Dram>, ModelError>> {
        let _s = dram_obs::span("engine.evaluate_many").arg("items", descs.len());
        self.map(descs, |d| {
            isolate(|| {
                dram_faults::trip("engine.worker");
                self.cache.get_or_build(d)
            })
        })
    }

    /// [`EvalEngine::evaluate_many`] over `(key, description)` items,
    /// each key `content_key` of its description as in
    /// [`EvalEngine::model_keyed`], with per-item cache-hit reporting:
    /// `out[i]` carries the model for `items[i]` plus whether it was a
    /// cache hit, in input order regardless of thread count. Panics are
    /// isolated per item exactly like [`EvalEngine::evaluate_many`].
    pub fn evaluate_many_keyed(
        &self,
        items: &[(u64, &DramDescription)],
    ) -> Vec<Result<(Arc<Dram>, bool), ModelError>> {
        let _s = dram_obs::span("engine.evaluate_many").arg("items", items.len());
        self.map(items, |&(key, d)| {
            isolate(|| {
                dram_faults::trip("engine.worker");
                self.cache.get_or_build_keyed(key, Cow::Borrowed(d))
            })
        })
    }

    /// Evaluates the mixed-workload power of a batch of perturbed
    /// descriptions via differential rebuilds — the sweep fast path.
    ///
    /// The base model is built (or fetched) through the cache once; each
    /// perturbation then re-runs only the build phases its
    /// [`Perturbation::dirty_set`] marks dirty, on the struct-of-arrays
    /// charge kernel ([`ChargeBatch`]), with no per-item description
    /// hashing, ledger allocation or cache traffic. Every `out[i]` is
    /// bit-identical to
    /// `Dram::new(perturbed_desc)?.mixed_workload_power()` — phases re-run
    /// with the same arithmetic in the same order, and the loop is priced
    /// by the function behind [`Dram::timed_pattern_power`] — and input
    /// order is preserved regardless of thread count.
    ///
    /// Per-item failures (validation of an over-perturbed description,
    /// a worker panic) land in that item's slot; the batch completes.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the *base* description fails to build.
    pub fn evaluate_perturbations(
        &self,
        base: &DramDescription,
        perts: &[Perturbation],
    ) -> Result<Vec<Result<PowerSummary, ModelError>>, ModelError> {
        let _s = dram_obs::span("engine.evaluate_perturbations").arg("items", perts.len());
        let base_model = self.cache.get_or_build(base)?;
        // The mixed workload is built from spec and timing, which no
        // ParamId edits; one loop is shared by the whole batch.
        let pattern = base_model.mixed_workload();
        let base_batch = ChargeBatch::from_model(&ChargeModel::new(
            base_model.description(),
            base_model.geometry(),
        ));

        thread_local! {
            static SCRATCH: RefCell<Option<(DramDescription, ChargeBatch)>> =
                const { RefCell::new(None) };
        }

        Ok(self.map(perts, |pert| {
            isolate(|| {
                dram_faults::trip("engine.worker");
                SCRATCH.with(|cell| {
                    let mut slot = cell.borrow_mut();
                    let (desc, batch) =
                        slot.get_or_insert_with(|| (base.clone(), ChargeBatch::default()));
                    let _span = dram_obs::span("model.rebuild").arg("edits", pert.edits().len());
                    crate::model::model_rebuilds_total().inc();
                    desc.clone_from(base);
                    pert.apply(desc);
                    let dirty = pert.dirty_set();
                    crate::model::validate(desc)?;
                    let geometry_dirty = dirty.contains(BuildPhase::Geometry);
                    let owned_geom;
                    let geom = if geometry_dirty {
                        owned_geom = Geometry::new(desc)?;
                        &owned_geom
                    } else {
                        base_model.geometry()
                    };
                    let charges_dirty =
                        dirty.contains(BuildPhase::Devices) || dirty.contains(BuildPhase::Charges);
                    let (ops, skipped) = if charges_dirty {
                        let m = ChargeModel::new(desc, geom);
                        batch.fill(&m);
                        (
                            batch.op_externals(&desc.electrical),
                            u64::from(!geometry_dirty),
                        )
                    } else {
                        // Geometry, devices and charges all clean: the
                        // base charge lanes re-convert at the new
                        // operating point.
                        (base_batch.op_externals(&desc.electrical), 3)
                    };
                    crate::model::rebuild_phases_skipped_total().add(skipped);
                    if skipped > 0 {
                        dram_obs::journal::note(dram_obs::journal::EventKind::RebuildSkip, skipped);
                    }
                    Ok(crate::model::loop_power(desc, &ops, &pattern))
                })
            })
        }))
    }

    /// Applies `f` to every item on the worker pool and returns results
    /// in input order.
    ///
    /// The reduction order is fixed per index — worker interleaving
    /// cannot reorder or regroup results, so for a pure `f` the output
    /// is bit-identical to `items.iter().map(f).collect()`.
    ///
    /// # Panics
    ///
    /// Re-raises any panic from `f` after all workers have stopped.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let workers = self.threads.min(items.len());
        let _s = dram_obs::span("engine.map")
            .arg("items", items.len())
            .arg("workers", workers.max(1));
        if workers <= 1 {
            return items.iter().map(f).collect();
        }

        // Chunked dynamic queue: fine-grained enough to balance uneven
        // item costs, coarse enough to keep the atomic off the hot path.
        let chunk = (items.len() / (workers * 8)).max(1);
        let next = AtomicUsize::new(0);
        let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    // Named threads: a panic message or an obs thread
                    // attribution then identifies the failing worker.
                    std::thread::Builder::new()
                        .name(format!("engine-worker-{w}"))
                        .spawn_scoped(s, || {
                            let mut local = Vec::new();
                            loop {
                                let start = next.fetch_add(chunk, Ordering::Relaxed);
                                if start >= items.len() {
                                    break;
                                }
                                let end = (start + chunk).min(items.len());
                                for (i, item) in items.iter().enumerate().take(end).skip(start) {
                                    local.push((i, f(item)));
                                }
                            }
                            local
                        })
                        .expect("spawn engine worker")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(part) => part,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });

        // Deterministic reduction: place by original index.
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        for (i, r) in parts.into_iter().flatten() {
            debug_assert!(slots[i].is_none(), "index {i} computed twice");
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index computed exactly once"))
            .collect()
    }

    /// A process-wide shared engine (default thread count).
    ///
    /// Every analysis (`dram_sensitivity::sweep`, the §V scheme and
    /// ablation walks, the roadmap trends) takes its engine as its first
    /// argument. Callers that want one model cache per process and no
    /// say over the thread count pass this one, as the server does; code
    /// that needs an explicit thread count builds its own engine.
    #[must_use]
    pub fn global() -> &'static EvalEngine {
        static GLOBAL: OnceLock<EvalEngine> = OnceLock::new();
        GLOBAL.get_or_init(EvalEngine::new)
    }
}

/// Runs `f`, converting a panic into [`ModelError::Panicked`] instead of
/// unwinding. `AssertUnwindSafe` is sound here because the only shared
/// state `f` touches is the model cache, whose locks are poison-tolerant
/// and whose fault trip sits outside them.
fn isolate<T>(f: impl FnOnce() -> Result<T, ModelError>) -> Result<T, ModelError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(ModelError::Panicked {
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// Best-effort rendering of a panic payload (panics carry `&str` or
/// `String` in practice).
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ddr3_1g_x16_55nm;

    #[test]
    fn map_is_bit_identical_across_thread_counts() {
        let items: Vec<u64> = (0..100).collect();
        let f = |x: &u64| (*x as f64).sqrt().sin().to_bits();
        let serial = EvalEngine::new().threads(1).map(&items, f);
        for n in [2, 3, 4, 7, 128] {
            let parallel = EvalEngine::new().threads(n).map(&items, f);
            assert_eq!(serial, parallel, "threads={n}");
        }
    }

    #[test]
    fn map_handles_edge_sizes() {
        let engine = EvalEngine::new().threads(4);
        assert_eq!(engine.map(&[] as &[u32], |x| *x), Vec::<u32>::new());
        assert_eq!(engine.map(&[5u32], |x| x * 2), vec![10]);
        let big: Vec<usize> = (0..1000).collect();
        assert_eq!(engine.map(&big, |x| x + 1), (1..1001).collect::<Vec<_>>());
    }

    #[test]
    fn map_propagates_panics() {
        let engine = EvalEngine::new().threads(2);
        let items: Vec<u32> = (0..10).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.map(&items, |x| {
                assert!(*x != 7, "boom");
                *x
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn cache_returns_shared_model_and_counts() {
        let cache = ModelCache::new();
        let desc = ddr3_1g_x16_55nm();
        let a = cache.get_or_build(&desc).expect("builds");
        let b = cache.get_or_build(&desc).expect("hits");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    /// Builders released together on one new description all get the
    /// model filed first: a builder that lost the race drops its own.
    /// Each round races on a description no earlier round built, and
    /// half the builders hand their description over by value, so an
    /// owned loser drops the description it moved in.
    #[test]
    fn racing_builders_share_one_model() {
        const BUILDERS: u64 = 8;
        let cache = ModelCache::new();
        for round in 0..16 {
            let mut desc = ddr3_1g_x16_55nm();
            desc.electrical.vdd = dram_units::Volts::new(1.4 + 0.01 * f64::from(round));
            let key = content_key(&desc);
            let before = cache.stats();
            let barrier = std::sync::Barrier::new(BUILDERS as usize);
            let models: Vec<Arc<Dram>> = std::thread::scope(|s| {
                let builders: Vec<_> = (0..BUILDERS)
                    .map(|b| {
                        let (barrier, cache, desc) = (&barrier, &cache, &desc);
                        s.spawn(move || {
                            let owned = (b % 2 == 1).then(|| desc.clone());
                            barrier.wait();
                            match owned {
                                Some(owned) => cache.get_or_build_keyed(key, Cow::Owned(owned)),
                                None => cache.get_or_build_keyed(key, Cow::Borrowed(desc)),
                            }
                            .expect("builds")
                            .0
                        })
                    })
                    .collect();
                builders
                    .into_iter()
                    .map(|b| b.join().expect("builder thread"))
                    .collect()
            });
            assert!(models.iter().all(|m| Arc::ptr_eq(m, &models[0])));
            assert_eq!(cache.len(), round as usize + 1);
            let stats = cache.stats();
            let misses = stats.misses - before.misses;
            assert!(misses >= 1, "round {round}: {stats:?}");
            assert_eq!(misses + stats.hits - before.hits, BUILDERS);
        }
    }

    #[test]
    fn second_evaluate_many_does_zero_rebuilds() {
        let engine = EvalEngine::new().threads(4);
        let mut descs = Vec::new();
        for i in 0..8 {
            let mut d = ddr3_1g_x16_55nm();
            d.technology.bitline_cap = d.technology.bitline_cap * (1.0 + 0.01 * i as f64);
            descs.push(d);
        }
        let first = engine.evaluate_many(&descs);
        assert!(first.iter().all(Result::is_ok));
        let misses_after_first = engine.cache_stats().misses;
        assert_eq!(misses_after_first, 8);
        let second = engine.evaluate_many(&descs);
        assert!(second.iter().all(Result::is_ok));
        assert_eq!(engine.cache_stats().misses, misses_after_first);
        assert_eq!(engine.cache_stats().hits, 8);
        for (a, b) in first.iter().zip(&second) {
            assert!(Arc::ptr_eq(a.as_ref().unwrap(), b.as_ref().unwrap()));
        }
    }

    #[test]
    fn evaluate_many_preserves_order_and_errors() {
        let good = ddr3_1g_x16_55nm();
        let mut bad = ddr3_1g_x16_55nm();
        bad.spec.bank_address_bits = 5; // 32 banks: floorplan grid mismatch
        let engine = EvalEngine::new().threads(3);
        let out = engine.evaluate_many(&[good.clone(), bad, good]);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
        assert!(out[2].is_ok());
        assert!(Arc::ptr_eq(
            out[0].as_ref().unwrap(),
            out[2].as_ref().unwrap()
        ));
    }

    #[test]
    fn content_key_tracks_field_changes() {
        let base = ddr3_1g_x16_55nm();
        let h0 = content_key(&base);
        assert_eq!(h0, content_key(&base.clone()), "hash is deterministic");

        let mut d = base.clone();
        d.technology.bitline_cap = d.technology.bitline_cap * 1.0001;
        assert_ne!(h0, content_key(&d), "technology float");

        let mut d = base.clone();
        d.electrical.vdd = d.electrical.vdd * 1.0001;
        assert_ne!(h0, content_key(&d), "electrical float");

        let mut d = base.clone();
        d.timing.trc = d.timing.trc * 1.0001;
        assert_ne!(h0, content_key(&d), "timing float");

        let mut d = base.clone();
        d.spec.prefetch = 4;
        assert_ne!(h0, content_key(&d), "spec integer");

        let mut d = base.clone();
        d.floorplan.bits_per_bitline *= 2;
        assert_ne!(h0, content_key(&d), "floorplan integer");

        let mut d = base.clone();
        d.name.push('!');
        assert_ne!(h0, content_key(&d), "name");

        let mut d = base.clone();
        if let Some(sig) = d.signaling.signals.first_mut() {
            sig.toggle_rate *= 1.0001;
        }
        assert_ne!(h0, content_key(&d), "signaling float");

        let mut d = base.clone();
        if let Some(block) = d.logic_blocks.first_mut() {
            block.gates += 1;
        }
        assert_ne!(h0, content_key(&d), "logic block");
    }

    /// The content key is the shard-routing contract: `dram-route`
    /// places it on the consistent-hash ring, so a change to the
    /// algorithm or the field walk silently re-maps every node's cache
    /// slice. This golden value pins it; update it only with a deliberate
    /// ring-migration story (see docs/SHARDING.md).
    #[test]
    fn content_key_is_stable_across_refactors() {
        let key = content_key(&ddr3_1g_x16_55nm());
        assert_eq!(
            key, 0xc7ae_0617_96b3_bb24,
            "content_key for the ddr3_1g_x16_55nm reference changed: \
             this re-maps the whole shard ring (got {key:#018x})"
        );
    }

    /// `StableHasher` must encode every integer width deterministically
    /// and identically across usize widths (usize/isize widen to 64).
    #[test]
    fn stable_hasher_is_deterministic_and_width_stable() {
        let digest = |f: &dyn Fn(&mut StableHasher)| {
            let mut h = StableHasher::new();
            f(&mut h);
            h.finish()
        };
        assert_eq!(
            digest(&|h| h.write(b"abc")),
            digest(&|h| {
                h.write_u8(b'a');
                h.write_u8(b'b');
                h.write_u8(b'c');
            }),
        );
        assert_eq!(digest(&|h| h.write_usize(7)), digest(&|h| h.write_u64(7)),);
        assert_eq!(
            digest(&|h| h.write_isize(-1)),
            digest(&|h| h.write_u64(u64::MAX)),
        );
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(StableHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn traced_lookups_report_per_call_hits() {
        let engine = EvalEngine::new().threads(2);
        let desc = ddr3_1g_x16_55nm();
        let key = content_key(&desc);
        let (first, hit) = engine
            .model_keyed(key, Cow::Borrowed(&desc))
            .expect("builds");
        assert!(!hit, "first sight must build");
        let (second, hit) = engine
            .model_keyed(key, Cow::Borrowed(&desc))
            .expect("cached");
        assert!(hit, "second lookup must hit");
        assert!(Arc::ptr_eq(&first, &second));

        let mut other = ddr3_1g_x16_55nm();
        other.technology.bitline_cap = other.technology.bitline_cap * 1.5;
        let out = engine.evaluate_many_keyed(&[
            (key, &desc),
            (content_key(&other), &other),
            (key, &desc),
        ]);
        let flags: Vec<bool> = out.iter().map(|r| r.as_ref().unwrap().1).collect();
        // desc was already cached; `other` is new; the second desc entry
        // hits whichever call cached it first.
        assert!(flags[0]);
        assert!(!flags[1]);
        assert!(flags[2]);
        // The traced and untraced paths share one set of counters.
        let stats = engine.cache_stats();
        assert_eq!(stats, CacheStats { hits: 3, misses: 2 });
    }

    #[test]
    fn known_bad_descriptions_fail_fast_from_the_negative_cache() {
        let cache = ModelCache::new();
        let mut bad = ddr3_1g_x16_55nm();
        bad.spec.bank_address_bits = 5; // floorplan grid mismatch
        let first = cache.get_or_build(&bad).expect_err("invalid");
        assert_eq!(cache.stats().misses, 1, "first sight runs validation");
        assert_eq!(cache.error_len(), 1);
        let second = cache.get_or_build(&bad).expect_err("still invalid");
        assert_eq!(first, second, "memoized error is the original error");
        assert_eq!(cache.stats().misses, 1, "no second validation run");
        assert_eq!(cache.error_hits(), 1);
        // Good descriptions are unaffected by the negative entries.
        assert!(cache.get_or_build(&ddr3_1g_x16_55nm()).is_ok());
        cache.clear();
        assert_eq!(cache.error_len(), 0);
        assert_eq!(cache.error_hits(), 0);
    }

    /// A description handed over by value keeps every check a borrowed
    /// one gets: a failed build is filed in the negative cache before the
    /// description is dropped, and its retry, either way, builds nothing.
    #[test]
    fn owned_descriptions_keep_the_negative_cache() {
        let cache = ModelCache::new();
        let mut bad = ddr3_1g_x16_55nm();
        bad.spec.bank_address_bits = 5; // floorplan grid mismatch
        let key = content_key(&bad);
        let first = cache
            .get_or_build_keyed(key, Cow::Owned(bad.clone()))
            .expect_err("invalid");
        assert_eq!(cache.stats().misses, 1, "first sight runs validation");
        assert_eq!(cache.error_len(), 1, "the owned description is filed");
        let by_value = cache
            .get_or_build_keyed(key, Cow::Owned(bad.clone()))
            .expect_err("still invalid");
        let by_reference = cache.get_or_build(&bad).expect_err("still invalid");
        assert_eq!(first, by_value);
        assert_eq!(first, by_reference);
        assert_eq!(cache.error_hits(), 2, "both retries fail fast");
        assert_eq!(cache.stats().misses, 1, "no retry builds");
        assert!(cache.is_empty());
    }

    #[test]
    fn an_owned_miss_is_shared_with_a_borrowed_hit() {
        let cache = ModelCache::new();
        let desc = ddr3_1g_x16_55nm();
        let (owned, hit) = cache
            .get_or_build_keyed(content_key(&desc), Cow::Owned(desc.clone()))
            .expect("builds");
        assert!(!hit);
        assert_eq!(
            owned.description(),
            &desc,
            "the model keeps what it was handed"
        );
        let borrowed = cache.get_or_build(&desc).expect("hits");
        assert!(Arc::ptr_eq(&owned, &borrowed));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn negative_cache_is_bounded_fifo() {
        let cache = ModelCache::new();
        // ERROR_CACHE_CAP + 1 distinct bad descriptions: the oldest must
        // be evicted, everything else stays memoized.
        let mut bads = Vec::new();
        for i in 0..=ERROR_CACHE_CAP {
            let mut bad = ddr3_1g_x16_55nm();
            bad.spec.bank_address_bits = 5;
            bad.name = format!("bad-{i}");
            assert!(cache.get_or_build(&bad).is_err());
            bads.push(bad);
        }
        assert_eq!(cache.error_len(), ERROR_CACHE_CAP);
        let misses = cache.stats().misses;
        // A survivor is served from the cache; the evicted (oldest)
        // entry revalidates (and re-enters, evicting the next-oldest).
        assert!(cache.get_or_build(&bads[1]).is_err());
        assert_eq!(cache.stats().misses, misses, "survivor served from cache");
        assert!(cache.get_or_build(&bads[0]).is_err());
        assert_eq!(cache.stats().misses, misses + 1, "evicted entry rebuilt");
    }

    #[test]
    fn evaluate_perturbations_matches_full_rebuild_bitwise() {
        let base = ddr3_1g_x16_55nm();
        let engine = EvalEngine::new().threads(1);
        let perts: Vec<Perturbation> = crate::perturb::ParamId::ALL
            .iter()
            .flat_map(|&p| [Perturbation::single(p, 1.2), Perturbation::single(p, 0.8)])
            .collect();
        let fast = engine
            .evaluate_perturbations(&base, &perts)
            .expect("base builds");
        for (pert, got) in perts.iter().zip(&fast) {
            let mut desc = base.clone();
            pert.apply(&mut desc);
            let want = Dram::new(desc)
                .expect("perturbed builds")
                .mixed_workload_power();
            let got = got.as_ref().expect("fast path builds");
            assert_eq!(
                got.power.watts().to_bits(),
                want.power.watts().to_bits(),
                "power differs for {:?}",
                pert.edits()
            );
            assert_eq!(
                got.current.amperes().to_bits(),
                want.current.amperes().to_bits()
            );
            assert_eq!(
                got.background.watts().to_bits(),
                want.background.watts().to_bits()
            );
        }
    }

    #[test]
    fn evaluate_perturbations_is_bit_identical_across_thread_counts() {
        let base = ddr3_1g_x16_55nm();
        let perts: Vec<Perturbation> = crate::perturb::ParamId::ALL
            .iter()
            .map(|&p| Perturbation::single(p, 1.1))
            .collect();
        let serial = EvalEngine::new()
            .threads(1)
            .evaluate_perturbations(&base, &perts)
            .expect("base builds");
        let parallel = EvalEngine::new()
            .threads(8)
            .evaluate_perturbations(&base, &perts)
            .expect("base builds");
        for (a, b) in serial.iter().zip(&parallel) {
            let (a, b) = (a.as_ref().expect("ok"), b.as_ref().expect("ok"));
            assert_eq!(a.power.watts().to_bits(), b.power.watts().to_bits());
            assert_eq!(a.current.amperes().to_bits(), b.current.amperes().to_bits());
            assert_eq!(
                a.background.watts().to_bits(),
                b.background.watts().to_bits()
            );
        }
    }

    #[test]
    fn evaluate_perturbations_isolates_invalid_items() {
        let base = ddr3_1g_x16_55nm();
        let engine = EvalEngine::new();
        // Collapsing Vpp below Vbl invalidates the description; the bad
        // item errors, its neighbors still evaluate.
        let perts = vec![
            Perturbation::single(crate::perturb::ParamId::Vint, 1.1),
            Perturbation::single(crate::perturb::ParamId::Vpp, 0.3),
            Perturbation::single(crate::perturb::ParamId::Vbl, 0.9),
        ];
        let out = engine
            .evaluate_perturbations(&base, &perts)
            .expect("base builds");
        assert!(out[0].is_ok());
        assert!(out[1].is_err(), "over-perturbed Vpp must fail validation");
        assert!(out[2].is_ok());
    }

    #[test]
    fn evaluate_many_isolates_panics_per_item() {
        // Panic on one item via the public API: a description that
        // panics is not constructible from safe inputs, so go through
        // `map`'s contract counterpart directly — evaluate_many wraps
        // the same closure in `isolate`. Exercise `isolate` here.
        let out: Result<(), ModelError> = super::isolate(|| panic!("boom {}", 7));
        match out {
            Err(ModelError::Panicked { message }) => {
                assert!(message.contains("boom 7"), "{message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        // Display form used by the server's JSON error bodies.
        let err = ModelError::Panicked {
            message: "boom".into(),
        };
        assert_eq!(err.to_string(), "evaluation panicked: boom");
    }

    #[test]
    fn map_workers_are_named() {
        let engine = EvalEngine::new().threads(2);
        let items: Vec<u32> = (0..32).collect();
        let names = engine.map(&items, |_| {
            std::thread::current().name().map(ToString::to_string)
        });
        for name in names.into_iter().flatten() {
            assert!(name.starts_with("engine-worker-"), "{name}");
        }
    }

    #[test]
    fn global_engine_is_shared() {
        let a = EvalEngine::global();
        let b = EvalEngine::global();
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn snapshot_reflects_cache_and_threads() {
        let engine = EvalEngine::new().threads(3);
        let empty = engine.snapshot();
        assert_eq!(
            empty,
            EngineSnapshot {
                hits: 0,
                misses: 0,
                entries: 0,
                threads: 3,
                error_hits: 0,
                error_entries: 0,
            }
        );
        assert_eq!(empty.hit_rate(), 0.0);

        let desc = ddr3_1g_x16_55nm();
        engine.model(&desc).expect("builds");
        engine.model(&desc).expect("hits");
        let snap = engine.snapshot();
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.entries, 1);
        assert_eq!(snap.threads, 3);
        assert!((snap.hit_rate() - 0.5).abs() < 1e-12);
    }
}
