//! Memoization of kernel-model evaluations.
//!
//! A what-if sweep prices thousands of execution graphs against the same
//! calibrated [`ModelRegistry`](crate::ModelRegistry), and the
//! critical-path walk re-evaluates the *same* GEMM / embedding / roofline
//! queries over and over — across scenarios that share a device and batch
//! size, most kernels are identical. [`MemoCache`] is a sharded concurrent
//! map from a [`MemoKey`] (kernel family + quantized model inputs) to the
//! model's `(time, confidence)` output, with hit/miss counters so sweeps
//! can report their cache efficiency.
//!
//! ## Why quantized-feature keys are safe
//!
//! Every kernel performance model in this workspace is a *pure function*
//! of the [`KernelSpec`] it is given (the registry's trait is `&self` and
//! [`Send`]` + `[`Sync`]; the MLP inference path never mutates weights).
//! The key derived here includes **every field a model can read**:
//! integer shape parameters verbatim, and `f64` parameters quantized to
//! their IEEE-754 bit pattern (`to_bits`), which is the finest — and
//! therefore lossless — quantization grid. Two specs that collide on a
//! [`MemoKey`] are indistinguishable to every model, so replaying a
//! cached value is *bitwise identical* to re-evaluating the model. A
//! coarser grid (e.g. bucketing sizes to powers of two) would raise hit
//! rates but break the sweep engine's bitwise cache-on/cache-off
//! equivalence contract, so it is deliberately not offered.
//!
//! One cache serves **one registry**: predictions depend on the device
//! the registry was calibrated for, and the key does not include the
//! device. The sweep engine therefore keeps one cache per pipeline.
//!
//! ## One hash per key
//!
//! [`MemoKey::of`] computes one process-independent, word-wise 64-bit
//! hash of the key's family and fields, once. That hash picks the key's
//! shard ([`MemoKey::shard`]) and is handed unchanged to the shard's map
//! through a pass-through hasher, so a lookup never rehashes the key's
//! 80 bytes of family and fields. Equality still compares the family and
//! every field, so a hash collision can only cost a comparison, never
//! return another key's value.
//!
//! ## Bounded caches
//!
//! A long-lived service answering millions of *distinct* queries must not
//! grow without bound, so the cache supports a hard capacity cap
//! ([`MemoCache::with_capacity`]) with CLOCK (second-chance) eviction.
//! Each entry carries one *referenced* bit, set by every hit; a hit does
//! nothing else, so a warm walk on a bounded cache costs what it costs on
//! an unbounded one. Each shard keeps a ring of its resident keys and a
//! clock hand. Only a store into a full shard moves the hand: it clears
//! and skips referenced entries and evicts the first unreferenced one, so
//! an entry hit since the hand last passed it survives one more sweep.
//! Eviction changes *hit rates* only, never values — a re-miss recomputes
//! the same pure function bit-for-bit — so the bitwise determinism
//! contract is unaffected by capacity. For the same reason the hash
//! function is free to change: it moves keys between shards, which
//! changes which entry a full shard evicts, never a value.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex};

use dlperf_gpusim::{KernelFamily, KernelSpec, MemcpyKind};
use dlperf_obs::{CounterGroup, CounterHandle};
use serde::{Deserialize, Serialize};

use crate::registry::Confidence;

/// Number of independently locked shards; a small power of two keeps
/// contention low at sweep-level thread counts without bloating the map.
const SHARDS: usize = 16;

/// Pads its contents to a 64-byte cache line so two frequently-written
/// atomics (the cache's hit/miss counters, the sweep engine's work-claim
/// counter) never share a line — false sharing turns every counter bump
/// into cross-core cache-line ping-pong. Wrap each hot atomic separately;
/// access the value through `.0`.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

/// The cache key: kernel family plus every model-visible input field.
///
/// Integer fields are keyed verbatim; `f64` fields by bit pattern (see
/// the module docs for why this exact quantization is the only level
/// compatible with bitwise determinism). Unused slots are zero — the
/// family discriminant keeps variants with different arities apart.
///
/// The key also carries its hash, computed once by [`MemoKey::of`] (see
/// the module docs). The hash is a function of the family and fields, so
/// two keys are equal exactly when those are; it leads the struct only so
/// that the derived comparisons reject unequal keys on one word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MemoKey {
    hash: u64,
    family: KernelFamily,
    fields: [u64; 9],
}

impl Hash for MemoKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Word-wise 64-bit hash of a key: an Fx-style rotate–xor–multiply step
/// per word, then the murmur3 `fmix64` finalizer so every output bit
/// depends on every input bit. Constants only, no per-process seed, so a
/// key's shard is the same in every run.
fn hash_words(family: KernelFamily, fields: &[u64; 9]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = (family as u64).wrapping_mul(K);
    for &f in fields {
        h = (h.rotate_left(5) ^ f).wrapping_mul(K);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Hands a [`MemoKey`]'s precomputed hash to the shard map unchanged.
#[derive(Debug, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, bytes: &[u8]) {
        // Only `write_u64` is reached (via `MemoKey::hash`); fold anything
        // else in so the hasher stays total.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl MemoKey {
    /// Derives the key for a kernel invocation.
    pub fn of(kernel: &KernelSpec) -> Self {
        let mut fields = [0u64; 9];
        match *kernel {
            KernelSpec::Gemm { m, n, k, batch } => fields[..4].copy_from_slice(&[m, n, k, batch]),
            KernelSpec::EmbeddingForward { b, e, t, l, d, rows_per_block }
            | KernelSpec::EmbeddingBackward { b, e, t, l, d, rows_per_block } => {
                fields[..6].copy_from_slice(&[b, e, t, l, d, rows_per_block]);
            }
            KernelSpec::Concat { bytes } => fields[0] = bytes,
            KernelSpec::Memcpy { bytes, kind } => {
                fields[0] = bytes;
                fields[1] = match kind {
                    MemcpyKind::HostToDevice => 1,
                    MemcpyKind::DeviceToHost => 2,
                    MemcpyKind::DeviceToDevice => 3,
                };
            }
            KernelSpec::Transpose { batch, rows, cols } => {
                fields[..3].copy_from_slice(&[batch, rows, cols]);
            }
            KernelSpec::TrilForward { batch, n } | KernelSpec::TrilBackward { batch, n } => {
                fields[..2].copy_from_slice(&[batch, n]);
            }
            KernelSpec::Elementwise { elems, flops_per_elem, bytes_per_elem } => {
                fields[..3].copy_from_slice(&[
                    elems,
                    flops_per_elem.to_bits(),
                    bytes_per_elem.to_bits(),
                ]);
            }
            KernelSpec::Conv2d { batch, c_in, h, w, c_out, kh, kw, stride, pad } => {
                fields.copy_from_slice(&[batch, c_in, h, w, c_out, kh, kw, stride, pad]);
            }
        }
        let family = kernel.family();
        MemoKey { hash: hash_words(family, &fields), family, fields }
    }

    /// The kernel family this key belongs to.
    pub fn family(&self) -> KernelFamily {
        self.family
    }

    /// The shard this key lives in: bits 32–35 of the key's one hash, the
    /// same in every process (std's `RandomState` would re-seed per
    /// process, which is harmless for correctness but makes shard load
    /// untestable). The shard map indexes buckets by the hash's low bits
    /// and tags them with its top seven, so neither is fixed within a
    /// shard. Placement affects which entry a full shard evicts, never a
    /// value.
    pub fn shard(&self) -> usize {
        (self.hash >> 32) as usize % SHARDS
    }
}

/// Snapshot of a cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MemoCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to evaluate the model. Threads that look up one
    /// absent key at once each evaluate it and each count a miss, so a
    /// parallel run's hit/miss split varies from run to run; `entries`
    /// does not, as long as nothing is evicted.
    pub misses: u64,
    /// Distinct keys currently stored.
    pub entries: usize,
    /// Entries dropped by the CLOCK capacity cap (0 on unbounded caches).
    pub evictions: u64,
}

impl MemoCacheStats {
    /// Fraction of lookups served from the cache (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Merges counters from several caches (e.g. one per device).
    pub fn merged(all: &[MemoCacheStats]) -> MemoCacheStats {
        all.iter().fold(MemoCacheStats::default(), |a, s| MemoCacheStats {
            hits: a.hits + s.hits,
            misses: a.misses + s.misses,
            entries: a.entries + s.entries,
            evictions: a.evictions + s.evictions,
        })
    }
}

impl std::fmt::Display for MemoCacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate, {} entries, {} evicted)",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.entries,
            self.evictions
        )
    }
}

/// A memoized evaluation plus its CLOCK reference bit, which fits in the
/// value's padding.
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: f64,
    confidence: Confidence,
    /// Set by every hit; cleared by the clock hand passing the entry.
    referenced: bool,
}

/// One independently locked slice of the cache. Bounded caches also keep
/// a ring of the shard's resident keys, one slot per entry, and the clock
/// hand that walks it on eviction. The ring is a bijection with the map's
/// keys: a new key takes a fresh slot until the shard is full and the
/// victim's slot after that.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<MemoKey, Entry, BuildHasherDefault<PassThrough>>,
    /// Resident keys; kept empty (and unmaintained) on unbounded caches,
    /// which never evict.
    ring: Vec<MemoKey>,
    /// The ring slot the next eviction examines first.
    hand: usize,
}

impl Shard {
    /// Evicts the first unreferenced entry at or after the hand, clearing
    /// the reference bit of each referenced entry it passes, and gives the
    /// victim's ring slot to `key`. Ends within one turn plus one slot,
    /// because a full turn clears every bit.
    fn replace_victim(&mut self, key: MemoKey) {
        loop {
            let slot = self.hand;
            self.hand = (slot + 1) % self.ring.len();
            let resident = self.map.get_mut(&self.ring[slot]).expect("ring key is resident");
            if resident.referenced {
                resident.referenced = false;
            } else {
                let victim = std::mem::replace(&mut self.ring[slot], key);
                self.map.remove(&victim);
                return;
            }
        }
    }
}

/// A thread-safe memo table for kernel-model evaluations.
///
/// Sharded `Mutex<HashMap>`s: lookups lock one shard briefly; the model
/// evaluation on a miss runs *outside* the lock, so concurrent misses on
/// different keys never serialize on each other. Two threads racing on
/// the same key may both evaluate the model — both compute the identical
/// pure-function result, so last-write-wins is benign and keeps the
/// fast path lock-short.
///
/// Built unbounded by [`MemoCache::new`] or with a hard capacity cap by
/// [`MemoCache::with_capacity`]; see the module docs for the eviction
/// policy.
#[derive(Debug)]
pub struct MemoCache {
    shards: Vec<Mutex<Shard>>,
    /// Total entry cap (`None` = unbounded). Enforced per shard as
    /// `capacity / SHARDS`, so the whole cache can never exceed the cap.
    capacity: Option<usize>,
    per_shard_cap: usize,
    /// The hit/miss/eviction counts live in a `dlperf-obs` counter group
    /// (each `obs::Counter` is cache-line padded), so recorder flushes
    /// export them alongside every other subsystem's counters;
    /// [`MemoCacheStats`] is a point-in-time view over the same atomics.
    obs: Arc<CounterGroup>,
    hits: CounterHandle,
    misses: CounterHandle,
    evictions: CounterHandle,
}

impl Default for MemoCache {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::build(None)
    }

    /// An empty cache holding at most `capacity` entries, evicting by
    /// CLOCK once full. The cap is distributed across the shards
    /// (`capacity / SHARDS` each), so total occupancy never exceeds
    /// `capacity`.
    ///
    /// # Panics
    /// Panics if `capacity < 16` (one entry per shard is the smallest
    /// enforceable cap).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= SHARDS, "memo capacity must be at least {SHARDS}");
        Self::build(Some(capacity))
    }

    fn build(capacity: Option<usize>) -> Self {
        let obs = CounterGroup::register("kernels.memo", &["hits", "misses", "evictions"]);
        let hits = obs.handle("hits");
        let misses = obs.handle("misses");
        let evictions = obs.handle("evictions");
        MemoCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            capacity,
            per_shard_cap: capacity.map_or(usize::MAX, |c| c / SHARDS),
            obs,
            hits,
            misses,
            evictions,
        }
    }

    /// The configured entry cap (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// This cache's recorder counter group.
    pub fn counters(&self) -> &Arc<CounterGroup> {
        &self.obs
    }

    /// Looks up `key` without counting, setting its reference bit on a
    /// hit.
    fn probe(&self, key: &MemoKey) -> Option<(f64, Confidence)> {
        let mut shard = self.shards[key.shard()].lock().expect("memo shard poisoned");
        let entry = shard.map.get_mut(key)?;
        entry.referenced = true;
        Some((entry.time, entry.confidence))
    }

    /// Stores `key → value` without counting. A *new* key on a full shard
    /// of a bounded cache first evicts the CLOCK victim and takes its ring
    /// slot; new entries start unreferenced. A re-store of a resident key
    /// (two threads racing on one miss) keeps its slot and bit.
    fn store(&self, key: MemoKey, (time, confidence): (f64, Confidence)) {
        let mut guard = self.shards[key.shard()].lock().expect("memo shard poisoned");
        let shard = &mut *guard;
        if let Some(resident) = shard.map.get_mut(&key) {
            (resident.time, resident.confidence) = (time, confidence);
            return;
        }
        if self.capacity.is_some() {
            if shard.ring.len() < self.per_shard_cap {
                shard.ring.push(key);
            } else {
                shard.replace_victim(key);
                self.evictions.incr();
            }
        }
        shard.map.insert(key, Entry { time, confidence, referenced: false });
    }

    /// Looks up `key`, evaluating `compute` and storing its result on a
    /// miss. The computation runs outside the shard lock.
    pub fn get_or_insert_with(
        &self,
        key: MemoKey,
        compute: impl FnOnce() -> (f64, Confidence),
    ) -> (f64, Confidence) {
        if let Some(v) = self.probe(&key) {
            self.hits.incr();
            return v;
        }
        let v = compute();
        self.misses.incr();
        self.store(key, v);
        v
    }

    /// Current counters.
    pub fn stats(&self) -> MemoCacheStats {
        MemoCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("memo shard poisoned").map.len())
                .sum(),
            evictions: self.evictions.get(),
        }
    }

    /// Drops all entries and zeroes the counters.
    pub fn clear(&self) {
        for s in &self.shards {
            let mut shard = s.lock().expect("memo shard poisoned");
            shard.map.clear();
            shard.ring.clear();
            shard.hand = 0;
        }
        self.hits.reset();
        self.misses.reset();
        self.evictions.reset();
    }
}

impl From<&MemoCache> for MemoCacheStats {
    fn from(cache: &MemoCache) -> Self {
        cache.stats()
    }
}

/// Reusable buffers for [`crate::ModelRegistry::predict_batch_into`]: the
/// cache probe, the dedup of absent keys, and the per-family index buckets
/// all keep their capacity across calls, so warm batches are
/// allocation-free.
///
/// Counter semantics replicate a loop of scalar
/// [`MemoCache::get_or_insert_with`] calls exactly: the first occurrence
/// of an absent key counts one miss, every duplicate of it later in the
/// batch counts a hit (as it would had the batch been a scalar loop, insert
/// then hit), and the misses are stored in input order, so cache
/// statistics and CLOCK eviction do not depend on which path did the
/// lookups.
#[derive(Debug, Default)]
pub struct MemoScratch {
    /// Absent keys with their batch index, sorted to find first occurrences.
    pending: Vec<(MemoKey, usize)>,
    /// Batch indices to evaluate, in input order.
    pub(crate) eval: Vec<usize>,
    /// `(duplicate, first occurrence)` batch indices of repeated absent keys.
    dups: Vec<(usize, usize)>,
    /// `eval` split by family, indexed like [`KernelFamily::ALL`].
    pub(crate) buckets: [Vec<usize>; KernelFamily::ALL.len()],
    /// One bucket's specs, contiguous for the family model.
    pub(crate) specs: Vec<KernelSpec>,
}

impl MemoScratch {
    /// Writes every cache hit into `values` and lists in `eval` the batch
    /// indices left to evaluate: all of them without a cache, the first
    /// occurrence of each absent key with one.
    pub(crate) fn probe(
        &mut self,
        kernels: &[KernelSpec],
        cache: Option<&MemoCache>,
        values: &mut [(f64, Confidence)],
    ) {
        self.eval.clear();
        self.dups.clear();
        let Some(cache) = cache else {
            self.eval.extend(0..kernels.len());
            return;
        };
        self.pending.clear();
        let mut hits = 0u64;
        for (i, kernel) in kernels.iter().enumerate() {
            let key = MemoKey::of(kernel);
            match cache.probe(&key) {
                Some(v) => {
                    values[i] = v;
                    hits += 1;
                }
                None => self.pending.push((key, i)),
            }
        }
        // Sorted by (key, index), each absent key's first occurrence heads
        // its run: it is the miss, the rest of the run are duplicates.
        self.pending.sort_unstable();
        let mut head: Option<(MemoKey, usize)> = None;
        for &(key, i) in &self.pending {
            match head {
                Some((k, first)) if k == key => {
                    self.dups.push((i, first));
                    hits += 1;
                }
                _ => {
                    self.eval.push(i);
                    head = Some((key, i));
                }
            }
        }
        self.eval.sort_unstable();
        if hits > 0 {
            cache.hits.add(hits);
        }
        if !self.eval.is_empty() {
            cache.misses.add(self.eval.len() as u64);
        }
    }

    /// After evaluation: stores the evaluated values in input order and
    /// resolves each duplicate from its first occurrence.
    pub(crate) fn commit(
        &self,
        kernels: &[KernelSpec],
        cache: Option<&MemoCache>,
        values: &mut [(f64, Confidence)],
    ) {
        let Some(cache) = cache else { return };
        for &i in &self.eval {
            cache.store(MemoKey::of(&kernels[i]), values[i]);
        }
        for &(i, first) in &self.dups {
            values[i] = values[first];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelRegistry;
    use dlperf_gpusim::DeviceSpec;
    use dlperf_nn::arena::ScratchArena;

    /// The scalar memoized lookup the batched path must agree with.
    fn memoized(reg: &ModelRegistry, cache: &MemoCache, k: &KernelSpec) -> (f64, Confidence) {
        cache.get_or_insert_with(MemoKey::of(k), || reg.predict_with_confidence(k))
    }

    /// One kernel priced through the registry's batch path.
    fn priced(reg: &ModelRegistry, cache: &MemoCache, k: &KernelSpec) -> (f64, Confidence) {
        let mut out = Vec::new();
        let (mut scratch, mut arena) = (MemoScratch::default(), ScratchArena::new());
        let one = std::slice::from_ref(k);
        reg.predict_batch_into(one, Some(cache), &mut scratch, &mut arena, &mut out);
        out[0]
    }

    #[test]
    fn key_separates_families_and_fields() {
        let a = MemoKey::of(&KernelSpec::gemm(64, 64, 64));
        let b = MemoKey::of(&KernelSpec::gemm(64, 64, 65));
        let c = MemoKey::of(&KernelSpec::Transpose { batch: 64, rows: 64, cols: 64 });
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, MemoKey::of(&KernelSpec::gemm(64, 64, 64)));
    }

    #[test]
    fn tril_directions_do_not_collide() {
        let f = MemoKey::of(&KernelSpec::TrilForward { batch: 8, n: 27 });
        let b = MemoKey::of(&KernelSpec::TrilBackward { batch: 8, n: 27 });
        assert_ne!(f, b, "same fields, different family");
    }

    #[test]
    fn key_hash_is_pinned_and_follows_equality() {
        // Literals, so a switch to a per-process seeded hasher (or any
        // other hash) fails here rather than silently moving shards.
        let gemm = MemoKey::of(&KernelSpec::gemm(512, 256, 128));
        let tril = MemoKey::of(&KernelSpec::TrilForward { batch: 2048, n: 27 });
        assert_eq!(gemm.hash, 15_697_976_454_174_504_868);
        assert_eq!(tril.hash, 4_713_074_703_354_957_861);
        assert_eq!((gemm.shard(), tril.shard()), (9, 8));

        let again = MemoKey::of(&KernelSpec::gemm(512, 256, 128));
        assert_eq!(gemm, again);
        assert_eq!(gemm.hash, again.hash, "equal keys hash equal");
        // Same fields, different family: distinct keys (and hashes).
        let back = MemoKey::of(&KernelSpec::TrilBackward { batch: 2048, n: 27 });
        assert_eq!(tril.fields, back.fields);
        assert_ne!(tril, back);
        assert_ne!(tril.hash, back.hash);
        let cache = MemoCache::new();
        cache.get_or_insert_with(tril, || (1.0, Confidence::Calibrated));
        let (v, _) = cache.get_or_insert_with(back, || (2.0, Confidence::Calibrated));
        assert_eq!(v.to_bits(), 2.0f64.to_bits(), "backward must not read forward's entry");
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn memcpy_kinds_do_not_collide() {
        let h2d = MemoKey::of(&KernelSpec::memcpy_h2d(1 << 20));
        let d2d = MemoKey::of(&KernelSpec::memcpy_d2d(1 << 20));
        assert_ne!(h2d, d2d);
    }

    #[test]
    fn elementwise_float_params_are_exact() {
        let a = MemoKey::of(&KernelSpec::Elementwise {
            elems: 1024,
            flops_per_elem: 1.0,
            bytes_per_elem: 8.0,
        });
        let b = MemoKey::of(&KernelSpec::Elementwise {
            elems: 1024,
            flops_per_elem: 1.0 + f64::EPSILON,
            bytes_per_elem: 8.0,
        });
        assert_ne!(a, b, "bit-level quantization must distinguish any two floats");
    }

    #[test]
    fn cached_prediction_is_bitwise_identical_and_counted() {
        let reg = ModelRegistry::calibrate(&DeviceSpec::v100(), crate::CalibrationEffort::Quick, 3);
        let cache = MemoCache::new();
        let k = KernelSpec::gemm(512, 256, 128);
        let direct = reg.predict_with_confidence(&k);
        let miss = priced(&reg, &cache, &k);
        let hit = priced(&reg, &cache, &k);
        assert_eq!(direct.0.to_bits(), miss.0.to_bits());
        assert_eq!(direct.0.to_bits(), hit.0.to_bits());
        assert_eq!(direct.1, hit.1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = MemoCache::new();
        cache.get_or_insert_with(MemoKey::of(&KernelSpec::gemm(8, 8, 8)), || {
            (1.0, Confidence::Calibrated)
        });
        cache.clear();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }

    #[test]
    fn batch_memoized_matches_scalar_values_and_counters() {
        let reg = ModelRegistry::calibrate(&DeviceSpec::v100(), crate::CalibrationEffort::Quick, 9);
        // A mixed-family batch with an in-batch duplicate and a repeat of
        // an already-cached key.
        let warm = KernelSpec::gemm(256, 128, 64);
        let batch = vec![
            warm.clone(),
            KernelSpec::gemm(512, 256, 128),
            KernelSpec::Transpose { batch: 64, rows: 9, cols: 64 },
            KernelSpec::gemm(512, 256, 128), // duplicate within the batch
            KernelSpec::memcpy_h2d(1 << 20),
            KernelSpec::TrilForward { batch: 64, n: 27 },
        ];

        // Scalar reference: fresh cache, warm one key, then loop.
        let scalar_cache = MemoCache::new();
        memoized(&reg, &scalar_cache, &warm);
        let scalar: Vec<(u64, Confidence)> = batch
            .iter()
            .map(|k| {
                let (t, c) = memoized(&reg, &scalar_cache, k);
                (t.to_bits(), c)
            })
            .collect();
        let scalar_stats = scalar_cache.stats();

        // Batched path over an identically prepared cache.
        let batch_cache = MemoCache::new();
        memoized(&reg, &batch_cache, &warm);
        let (mut scratch, mut arena) = (MemoScratch::default(), ScratchArena::new());
        let mut out = Vec::new();
        reg.predict_batch_into(&batch, Some(&batch_cache), &mut scratch, &mut arena, &mut out);
        let batched: Vec<(u64, Confidence)> = out.iter().map(|&(t, c)| (t.to_bits(), c)).collect();
        let batch_stats = batch_cache.stats();

        assert_eq!(batched, scalar, "batched values must be bitwise identical");
        assert_eq!(batch_stats, scalar_stats, "counter semantics must match the scalar loop");
        // Re-running the same batch on the same staging must add only hits.
        out.clear();
        reg.predict_batch_into(&batch, Some(&batch_cache), &mut scratch, &mut arena, &mut out);
        assert_eq!(out.len(), batch.len());
        let again = batch_cache.stats();
        assert_eq!(again.misses, batch_stats.misses);
        assert_eq!(again.hits, batch_stats.hits + batch.len() as u64);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let reg = ModelRegistry::empty(DeviceSpec::v100());
        let cache = MemoCache::new();
        let mut out = Vec::new();
        reg.predict_batch_into(
            &[],
            Some(&cache),
            &mut MemoScratch::default(),
            &mut ScratchArena::new(),
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(cache.stats(), MemoCacheStats::default());
    }

    #[test]
    fn cache_padding_aligns_counters() {
        use std::sync::atomic::AtomicU64;
        assert_eq!(std::mem::align_of::<CachePadded<AtomicU64>>(), 64);
        assert_eq!(std::mem::size_of::<CachePadded<AtomicU64>>(), 64);
        // The obs counters backing the memo stats carry the same padding.
        assert_eq!(std::mem::align_of::<dlperf_obs::Counter>(), 64);
    }

    #[test]
    fn stats_view_is_a_conversion_over_recorder_counters() {
        let cache = MemoCache::new();
        cache.get_or_insert_with(MemoKey::of(&KernelSpec::gemm(8, 8, 8)), || {
            (1.0, Confidence::Calibrated)
        });
        cache.get_or_insert_with(MemoKey::of(&KernelSpec::gemm(8, 8, 8)), || {
            unreachable!("second lookup must hit")
        });
        let view = MemoCacheStats::from(&cache);
        assert_eq!(view, cache.stats());
        assert_eq!(cache.counters().value("hits"), view.hits);
        assert_eq!(cache.counters().value("misses"), view.misses);
    }

    #[test]
    fn capped_cache_never_exceeds_capacity_and_counts_evictions() {
        let cache = MemoCache::with_capacity(16); // one entry per shard
        assert_eq!(cache.capacity(), Some(16));
        for i in 0..500u64 {
            cache.get_or_insert_with(MemoKey::of(&KernelSpec::gemm(8 + i, 8, 8)), || {
                (i as f64, Confidence::Calibrated)
            });
            assert!(cache.stats().entries <= 16, "cap breached at insert {i}");
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 500);
        assert!(stats.evictions > 0, "500 distinct keys into 16 slots must evict");
        assert_eq!(
            stats.entries as u64 + stats.evictions,
            500,
            "every miss either occupies a slot or displaced someone"
        );
        assert_eq!(cache.counters().value("evictions"), stats.evictions);
    }

    #[test]
    fn evicted_key_recomputes_bitwise_identical() {
        let reg = ModelRegistry::calibrate(&DeviceSpec::v100(), crate::CalibrationEffort::Quick, 3);
        let cache = MemoCache::with_capacity(16);
        let k = KernelSpec::gemm(512, 256, 128);
        let first = priced(&reg, &cache, &k);
        // Flood with distinct keys until the original is evicted.
        for i in 0..200u64 {
            priced(&reg, &cache, &KernelSpec::gemm(16 + i, 8, 8));
        }
        let again = priced(&reg, &cache, &k);
        assert_eq!(first.0.to_bits(), again.0.to_bits(), "re-miss must recompute same bits");
        assert_eq!(first.1, again.1);
    }

    #[test]
    fn touched_entry_survives_eviction_pressure() {
        // Per-shard cap of 2: the hot key shares its shard with at most one
        // churn key, and, being hit every iteration, is referenced whenever
        // the next churn insert needs a slot, so the churn key goes.
        let cache = MemoCache::with_capacity(32);
        let hot = MemoKey::of(&KernelSpec::gemm(1, 1, 1));
        cache.get_or_insert_with(hot, || (42.0, Confidence::Calibrated));
        // Keep the hot key referenced while churning others through.
        for i in 0..300u64 {
            cache.get_or_insert_with(MemoKey::of(&KernelSpec::gemm(8 + i, 8, 8)), || {
                (0.0, Confidence::Calibrated)
            });
            let (v, _) = cache.get_or_insert_with(hot, || {
                panic!("hot key evicted despite being the most recently used")
            });
            assert_eq!(v.to_bits(), 42.0f64.to_bits());
        }
    }

    #[test]
    fn batch_path_respects_capacity() {
        let reg = ModelRegistry::calibrate(&DeviceSpec::v100(), crate::CalibrationEffort::Quick, 5);
        let cache = MemoCache::with_capacity(16);
        let batch: Vec<KernelSpec> = (0..100).map(|i| KernelSpec::gemm(8 + i, 8, 8)).collect();
        let direct: Vec<u64> =
            batch.iter().map(|k| reg.predict_with_confidence(k).0.to_bits()).collect();
        let mut out = Vec::new();
        reg.predict_batch_into(
            &batch,
            Some(&cache),
            &mut MemoScratch::default(),
            &mut ScratchArena::new(),
            &mut out,
        );
        let via: Vec<u64> = out.iter().map(|(t, _)| t.to_bits()).collect();
        assert_eq!(via, direct, "capacity pressure must not change values");
        assert!(cache.stats().entries <= 16);
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    #[should_panic(expected = "memo capacity must be at least")]
    fn sub_shard_capacity_rejected() {
        let _ = MemoCache::with_capacity(3);
    }

    /// Checks every shard's CLOCK state: the ring holds exactly the map's
    /// keys, each once, and the hand points into the ring.
    fn assert_ring_matches_map(cache: &MemoCache) {
        for s in &cache.shards {
            let s = s.lock().unwrap();
            assert_eq!(s.ring.len(), s.map.len(), "ring desynced from map");
            let distinct: std::collections::HashSet<_> = s.ring.iter().collect();
            assert_eq!(distinct.len(), s.ring.len(), "a key holds two ring slots");
            assert!(s.ring.iter().all(|k| s.map.contains_key(k)), "a ring key is not resident");
            assert!(s.hand < s.ring.len().max(1), "hand {} off a ring of {}", s.hand, s.ring.len());
        }
    }

    #[test]
    fn reference_bit_costs_no_entry_space() {
        // The bit sits in the value's padding: an entry is as large as the
        // `(f64, Confidence)` it memoizes.
        assert_eq!(std::mem::size_of::<Entry>(), std::mem::size_of::<(f64, Confidence)>());
    }

    #[test]
    fn clock_ring_stays_bijective_with_the_map() {
        for capacity in [16, 48] {
            let cache = MemoCache::with_capacity(capacity);
            let hot = MemoKey::of(&KernelSpec::gemm(1, 1, 1));
            cache.store(hot, (1.0, Confidence::Calibrated));
            // A racing re-store of a resident key keeps its one ring slot.
            cache.store(hot, (2.0, Confidence::Calibrated));
            assert_ring_matches_map(&cache);
            for i in 0..100u64 {
                let key = MemoKey::of(&KernelSpec::gemm(8 + i, 8, 8));
                cache.store(key, (0.0, Confidence::Calibrated));
                cache.store(key, (0.0, Confidence::Calibrated));
                let _ = cache.probe(&hot);
                assert_ring_matches_map(&cache);
            }
            let stats = cache.stats();
            assert!(stats.entries <= capacity);
            assert!(stats.evictions > 0, "100 keys into {capacity} slots must evict");
        }
    }

    #[test]
    fn clock_gives_a_hit_entry_a_second_chance_and_evicts_the_first_unreferenced() {
        let cache = MemoCache::with_capacity(48); // three entries per shard
        let first = MemoKey::of(&KernelSpec::gemm(8, 8, 8));
        let same_shard: Vec<MemoKey> = (8u64..)
            .map(|m| MemoKey::of(&KernelSpec::gemm(m, 8, 8)))
            .filter(|k| k.shard() == first.shard())
            .take(6)
            .collect();
        let [a, b, c, d, e, f] = same_shard[..] else { unreachable!("six keys taken") };
        let ring = || cache.shards[first.shard()].lock().unwrap().ring.clone();
        let value = (1.0, Confidence::Calibrated);
        for k in [a, b, c] {
            cache.store(k, value);
        }
        assert!(cache.probe(&a).is_some(), "a is resident");
        // The hand starts at a: hit, so its bit is cleared and it is
        // skipped; b is the first unreferenced entry.
        cache.store(d, value);
        assert_eq!(ring(), vec![a, d, c]);
        // The hand moved past d's slot to c, unreferenced.
        cache.store(e, value);
        assert_eq!(ring(), vec![a, d, e]);
        // a spent its second chance on d's store: now it is the victim.
        cache.store(f, value);
        assert_eq!(ring(), vec![f, d, e]);
        assert_eq!(cache.stats().evictions, 3);
        assert!(cache.probe(&a).is_none() && cache.probe(&b).is_none());
        assert_ring_matches_map(&cache);
    }

    #[test]
    fn concurrent_hits_agree() {
        let reg = std::sync::Arc::new(ModelRegistry::calibrate(
            &DeviceSpec::v100(),
            crate::CalibrationEffort::Quick,
            5,
        ));
        let cache = std::sync::Arc::new(MemoCache::new());
        let specs: Vec<KernelSpec> =
            (0..32).map(|i| KernelSpec::gemm(64 + i % 4, 64, 64)).collect();
        let baseline: Vec<u64> =
            specs.iter().map(|k| reg.predict_with_confidence(k).0.to_bits()).collect();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (reg, cache, specs, baseline) =
                (reg.clone(), cache.clone(), specs.clone(), baseline.clone());
            handles.push(std::thread::spawn(move || {
                for (k, &want) in specs.iter().zip(&baseline) {
                    let (t, _) = priced(&reg, &cache, k);
                    assert_eq!(t.to_bits(), want);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.stats().entries, 4, "four distinct GEMM shapes");
    }
}
