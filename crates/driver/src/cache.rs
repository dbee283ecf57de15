//! Cross-scenario compilation reuse, in two layers.
//!
//! **Layer 1 — the in-process compilation cache.** A sweep's grid cells
//! collapse to far fewer distinct *compilation shapes* than scenarios:
//! the untransformed program depends only on (workload, size, np), and
//! the transformed program additionally on the tile request and the
//! model-capability fingerprint — a canonical digest of everything the
//! K-selection predictor reads from the model's capability view
//! ([`crate::measure::model_caps`]), whatever the model family — not on
//! the variant axis, not on thread counts, and not on which of two models
//! happens to share those capabilities (`mpich-beta:1` *is* `mpich` to
//! the transformer). [`CompileCache`] is a shard-locked concurrent map from
//! those canonical inputs to immutable compiled artifacts: the
//! [`interp::CompiledProgram`] for the original, and the full
//! [`TransformOutput`] (report, K-selection status and all) plus the
//! compiled pre-push program for transforms. Sweep workers
//! ([`crate::exec::run_sweep`]) share one [global](global) cache; a hit
//! skips parse → analyze → transform → lower → opt → typecheck entirely
//! and goes straight to simulation.
//!
//! Distinct shapes still collapse further: K-selection sends most models
//! to the same K, so many transform shapes *emit the same program*. The
//! report is per model (its notes quote the predictor), but the two
//! expensive steps after emission — the analyzer gate and lower → opt →
//! typecheck — read only the emitted program, `np`, and the context. So
//! the cache holds a second, content-addressed level keyed by exactly
//! those ([`EmissionKey`]): the gate's verdict and the compiled program
//! are computed once per distinct emission and `Arc`-shared by every
//! shape that emits it. Lock order is shape shard → emission shard, never
//! the reverse.
//!
//! Reuse cannot change results: each level's value is a pure function of
//! its key, values are `Arc`-shared and never mutated, and execution
//! depends only on (compiled program, np, model) — the same argument that
//! lets all ranks of one scenario share one lowered program (DESIGN.md §5).
//!
//! **Layer 2 — content hashes for incremental sweeps.** Every scenario's
//! *simulation inputs* — the canonical spec bytes, the generated workload
//! source and analysis context, all network-model constants, the
//! interpreter's cost/option fingerprint, the workload-registry code
//! fingerprint, and an engine revision tag — fold into one stable FNV-1a
//! digest ([`scenario_input_hash`]). The `overlap-sweep/v3` artifact
//! records it per row, and `harness sweep --incremental --baseline`
//! reuses baseline rows whose hash matches instead of re-simulating them
//! (see [`crate::exec::run_sweep_incremental`]). Virtual times are a
//! deterministic function of these inputs, so a matching hash means the
//! baseline row is byte-for-byte what a fresh run would produce.

use crate::measure::workload_options;
use crate::spec::ScenarioSpec;
use analyzer::CommCheckConfig;
use clustersim::NetworkModel;
use compuniformer::transform::{apply_verdict, gate_config, gate_verdict};
use compuniformer::TransformOutput;
use fir::ast::Program;
use interp::{compile_program, CompiledProgram, Options};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use workloads::{fnv1a, fnv1a_extend, Workload};

/// Bump when simulator, transformation, cost-model, or interpreter
/// *semantics* change in a way that alters virtual times without any
/// scenario input changing — it folds into every [`scenario_input_hash`],
/// so old artifacts stop matching and incremental sweeps re-simulate
/// everything. (The committed-baseline workflow is self-correcting even
/// without a bump — the golden quick-grid test forces regenerating the
/// baseline whenever times move — but privately kept artifacts are not,
/// hence the tag.)
pub const ENGINE_FINGERPRINT: &str = "overlap-engine/v1";

/// The compilation inputs that determine a cached artifact, canonically.
/// `transform: None` keys the untransformed program (model-independent);
/// `Some(..)` keys a transform by the tile request plus the canonical
/// model-capability fingerprint ([`transform_model_fingerprint`]) — so
/// models that agree on their effective capabilities share one entry, and
/// models of *any* family that differ in any capability never collide.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct CompileKey {
    workload: String,
    size_id: &'static str,
    np: usize,
    transform: Option<TransformAxes>,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct TransformAxes {
    tile: Option<i64>,
    /// [`transform_model_fingerprint`] of the model at this key's `np`.
    model_fp: u64,
}

/// Canonical digest of everything the transformation reads from a network
/// model: the capability view `model_caps(model, np)` — effective
/// overhead, per-byte CPU, bottleneck per-byte wire rate, latency, and the
/// conservative flag. This is a pure function of (model constants, family,
/// np), so two models — of any family — produce the same transform iff
/// their fingerprints at that `np` agree. Display names never fold in:
/// `mpich-beta:1` still shares `mpich`'s entry.
pub fn transform_model_fingerprint(model: &NetworkModel, np: usize) -> u64 {
    let caps = crate::measure::model_caps(model, np);
    let mut h = fnv1a(b"model-caps/v1");
    for bits in [
        caps.overhead().to_bits(),
        caps.cpu_per_byte().to_bits(),
        caps.wire_per_byte().to_bits(),
        caps.latency().to_bits(),
    ] {
        h = fnv1a_extend(h, &bits.to_le_bytes());
    }
    fnv1a_extend(h, &[u8::from(caps.conservative)])
}

impl CompileKey {
    fn shard_hash(&self) -> u64 {
        let mut h = fnv1a(self.workload.as_bytes());
        h = fnv1a_extend(h, self.size_id.as_bytes());
        h = fold_i64(h, self.np as i64);
        if let Some(t) = &self.transform {
            h = match t.tile {
                None => fnv1a_extend(h, &[0]),
                Some(k) => fold_i64(fnv1a_extend(h, &[1]), k),
            };
            h = fnv1a_extend(h, &t.model_fp.to_le_bytes());
        }
        h
    }
}

fn fold_i64(h: u64, v: i64) -> u64 {
    fnv1a_extend(h, &v.to_le_bytes())
}

/// Exactly what the analyzer gate and the lowerer read of one emission:
/// the emitted program — as its `fir::unparse` text, which `harness
/// analyze` already relies on being faithful (unparse ∘ parse) — and the
/// verifier's configuration. Spans are not part of the text; they only
/// place diagnostics, and the gate keeps `code: message` lines.
#[derive(PartialEq, Eq, Hash)]
struct EmissionKey {
    text: String,
    np: i64,
    symbols: Vec<(String, i64)>,
    budget: u64,
}

impl EmissionKey {
    fn shard_hash(&self) -> u64 {
        let mut h = fold_i64(fnv1a(self.text.as_bytes()), self.np);
        for (name, v) in &self.symbols {
            h = fold_i64(fnv1a_extend(h, name.as_bytes()), *v);
        }
        fnv1a_extend(h, &self.budget.to_le_bytes())
    }
}

/// What is computed once per distinct emission.
struct Gated {
    /// [`gate_verdict`]'s lines; empty when the emission was proved safe.
    verdict: Vec<String>,
    compiled: CompiledProgram,
}

/// A cached compilation: either the original program, or a transform
/// (the full report — strategy, tile choice, K-selection status — plus
/// the compiled pre-push program).
#[derive(Clone)]
enum Compiled {
    Original(CompiledProgram),
    Transformed(Arc<TransformOutput>, CompiledProgram),
}

/// Cache hit/miss counters (process-lifetime for the [global] cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

impl CacheStats {
    /// Counter movement between two snapshots (for per-sweep reporting).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

const SHARDS: usize = 32;

/// A concurrent, shard-locked memo table. Shards are selected by the
/// key's FNV digest, so parallel sweep workers computing different keys
/// almost never contend; a worker that loses the race for a key blocks
/// briefly on that shard and then *hits*, never computing twice.
struct ShardedMemo<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> ShardedMemo<K, V> {
    fn new() -> Self {
        ShardedMemo {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    fn shard(&self, hash: u64) -> &Mutex<HashMap<K, V>> {
        &self.shards[(hash as usize) % SHARDS]
    }

    /// Fetch or compute under the key's shard lock. Holding the lock
    /// through the compute keeps the table single-compute-per-key (the
    /// second racer blocks, then hits); other shards stay available.
    fn get_or_compute(&self, hash: u64, key: K, compute: impl FnOnce() -> V) -> V {
        let mut map = self.shard(hash).lock().unwrap_or_else(|e| e.into_inner());
        if let Some(hit) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = compute();
        map.insert(key, value.clone());
        value
    }

    fn contains(&self, hash: u64, key: &K) -> bool {
        self.shard(hash)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contains_key(key)
    }
}

/// The two-level compilation cache: compilation shapes, and under them
/// the distinct emitted programs (see the module docs).
pub struct CompileCache {
    shapes: ShardedMemo<CompileKey, Compiled>,
    emissions: ShardedMemo<EmissionKey, Arc<Gated>>,
}

impl Default for CompileCache {
    fn default() -> Self {
        Self::new()
    }
}

impl CompileCache {
    pub fn new() -> CompileCache {
        CompileCache {
            shapes: ShardedMemo::new(),
            emissions: ShardedMemo::new(),
        }
    }

    /// Shape-level hits and misses (one lookup per `original` /
    /// `transformed` call).
    pub fn stats(&self) -> CacheStats {
        self.shapes.stats()
    }

    /// Emission-level counters: `misses` is the number of gate
    /// verifications (and emitted-program compilations) performed, `hits`
    /// the transform shapes that found their emission already gated.
    pub fn gate_stats(&self) -> CacheStats {
        self.emissions.stats()
    }

    /// Number of distinct compilation shapes currently cached.
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get_or_compile(&self, key: CompileKey, compile: impl FnOnce() -> Compiled) -> Compiled {
        self.shapes.get_or_compute(key.shard_hash(), key, compile)
    }

    fn contains(&self, key: &CompileKey) -> bool {
        self.shapes.contains(key.shard_hash(), key)
    }

    /// The gate's verdict on `emitted` and its compiled form, computed
    /// once per distinct emission.
    fn gated(&self, emitted: &Program, cfg: &CommCheckConfig, name: &str) -> Arc<Gated> {
        let key = EmissionKey {
            text: fir::unparse(emitted),
            np: cfg.np,
            symbols: cfg.symbols.clone(),
            budget: cfg.budget,
        };
        self.emissions.get_or_compute(key.shard_hash(), key, || {
            Arc::new(Gated {
                verdict: gate_verdict(emitted, cfg),
                compiled: compile(emitted, name),
            })
        })
    }

    /// Would this scenario's compilations all be served from cache right
    /// now? A pure probe — hit/miss counters don't move — used for the
    /// `cache_warm` flag on [`crate::event::ProgressEvent::ScenarioFinished`].
    /// Conservative under concurrency: a shape another worker is filling
    /// at this instant reads as cold.
    pub fn warm_for(&self, spec: &ScenarioSpec) -> bool {
        use crate::spec::Variant;
        let original = CompileKey {
            workload: spec.workload.clone(),
            size_id: spec.size.id(),
            np: spec.np,
            transform: None,
        };
        let transformed = CompileKey {
            transform: Some(TransformAxes {
                tile: spec.tile_size,
                model_fp: transform_model_fingerprint(&spec.model.to_model(), spec.np),
            }),
            ..original.clone()
        };
        match spec.variant {
            Variant::Compare => self.contains(&original) && self.contains(&transformed),
            Variant::Original => self.contains(&original),
            Variant::Prepush => self.contains(&transformed),
        }
    }

    /// The compiled *original* program of `(workload, size, np)` — keyed
    /// independently of model, tile, and variant, so e.g. the three model
    /// columns of one grid row compile it once.
    pub fn original(&self, spec: &ScenarioSpec, w: &dyn Workload) -> CompiledProgram {
        let key = CompileKey {
            workload: spec.workload.clone(),
            size_id: spec.size.id(),
            np: spec.np,
            transform: None,
        };
        let got = self.get_or_compile(key, || {
            Compiled::Original(compile(&w.program(), w.name()))
        });
        match got {
            Compiled::Original(p) => p,
            Compiled::Transformed(..) => unreachable!("original key holds original program"),
        }
    }

    /// The transform of `(workload, size, np)` under `model`'s K-selection
    /// constants and the requested tile: the full [`TransformOutput`]
    /// (report and K-selection status included) plus the compiled
    /// pre-push program.
    pub fn transformed(
        &self,
        spec: &ScenarioSpec,
        w: &dyn Workload,
        model: &NetworkModel,
    ) -> (Arc<TransformOutput>, CompiledProgram) {
        let key = CompileKey {
            workload: spec.workload.clone(),
            size_id: spec.size.id(),
            np: spec.np,
            transform: Some(TransformAxes {
                tile: spec.tile_size,
                model_fp: transform_model_fingerprint(model, spec.np),
            }),
        };
        let got = self.get_or_compile(key, || {
            let original = w.program();
            let opts = workload_options(w, model, spec.tile_size);
            let emitted = compuniformer::emit(&original, &opts)
                .unwrap_or_else(|e| panic!("workload `{}` must transform: {e}", w.name()));
            let (out, compiled) = match gate_config(&emitted, &opts.context) {
                // Nothing applied: the emission is the original program.
                None => {
                    let compiled = compile(&emitted.program, w.name());
                    (emitted, compiled)
                }
                Some(cfg) => {
                    let gated = self.gated(&emitted.program, &cfg, w.name());
                    let out = apply_verdict(&original, emitted, &gated.verdict);
                    let compiled = if gated.verdict.is_empty() {
                        gated.compiled.clone()
                    } else {
                        compile(&out.program, w.name())
                    };
                    (out, compiled)
                }
            };
            Compiled::Transformed(Arc::new(out), compiled)
        });
        match got {
            Compiled::Transformed(out, p) => (out, p),
            Compiled::Original(..) => unreachable!("transform key holds transform"),
        }
    }
}

/// Lower → opt → typecheck one of a workload's programs under the sweep's
/// (default) interpreter options.
fn compile(program: &Program, workload: &str) -> CompiledProgram {
    compile_program(program, &Options::default())
        .unwrap_or_else(|e| panic!("workload `{workload}` must compile: {e}"))
}

/// The process-wide cache every sweep worker shares. Entries are small
/// (lowered programs), shapes per grid number in the dozens, and the
/// process is the natural reuse scope — repeated sweeps (tests, the
/// harness gate re-running a grid) stay warm.
pub fn global() -> &'static CompileCache {
    static CACHE: OnceLock<CompileCache> = OnceLock::new();
    CACHE.get_or_init(CompileCache::new)
}

// ------------------------------------------------------- input hashing

/// Everything the interpreter's default [`Options`] bakes into virtual
/// times: the cost constants and the semantics-preserving switch set.
fn options_fingerprint(h: u64, opts: &Options) -> u64 {
    let mut h = fnv1a_extend(h, b"opts");
    for bits in [
        opts.cost.ns_per_op.to_bits(),
        opts.cost.ns_per_stmt.to_bits(),
        opts.cost.ns_per_call.to_bits(),
    ] {
        h = fnv1a_extend(h, &bits.to_le_bytes());
    }
    // The switches are pinned byte-identical by the differential suites,
    // but fold them anyway: the hash should describe inputs, not lean on
    // theorems about them.
    fnv1a_extend(
        h,
        &[
            u8::from(opts.detect_buffer_reuse),
            u8::from(opts.trace),
            u8::from(opts.optimize),
            // A retired switch (`typed_chains`, always on): the byte stays
            // so committed `input_hash` values do not move.
            1,
        ],
    )
}

/// The canonical model section of the input hash: *all* constants of any
/// model family (the simulation reads them all, not just what the
/// transformer sees), plus the stable model id. The five base constants
/// fold exactly as they did before model families existed — so committed
/// `input_hash` values for uniform models (mpich, mpich-gm, rdma-ideal,
/// mpich-beta) are unchanged and v3 artifacts stay readable — and each
/// non-uniform family appends its own extra constants after them.
fn model_fingerprint(h: u64, spec: &ScenarioSpec) -> u64 {
    let model = spec.model.to_model();
    let mut h = fnv1a_extend(h, spec.model.id().as_bytes());
    for bits in [
        model.latency.as_ns(),
        model.overhead.as_ns(),
        model.gap_ns_per_byte.to_bits(),
        model.cpu_send_ns_per_byte.to_bits(),
        model.cpu_recv_ns_per_byte.to_bits(),
    ] {
        h = fnv1a_extend(h, &bits.to_le_bytes());
    }
    match &model.family {
        clustersim::NetModel::Uniform => {}
        clustersim::NetModel::Congested { links, load_factor } => {
            h = fnv1a_extend(h, b"congested");
            h = fnv1a_extend(h, &u64::from(*links).to_le_bytes());
            h = fnv1a_extend(h, &load_factor.to_bits().to_le_bytes());
        }
        clustersim::NetModel::Hetero(p) => {
            h = fnv1a_extend(h, b"hetero");
            h = fnv1a_extend(h, p.id().as_bytes());
        }
    }
    h
}

/// Content-hash one scenario's simulation inputs with an explicit
/// registry fingerprint (tests use this to prove a fingerprint change
/// invalidates every row; production callers use [`scenario_input_hash`]).
pub fn scenario_input_hash_with(
    spec: &ScenarioSpec,
    w: &dyn Workload,
    registry_fp: u64,
) -> u64 {
    let mut h = fnv1a(ENGINE_FINGERPRINT.as_bytes());
    h = fnv1a_extend(h, &registry_fp.to_le_bytes());
    // The canonical spec bytes: the same stable key the artifact and the
    // diff engine use (workload, size, np, model, tile request, variant).
    h = fnv1a_extend(h, spec.key().as_bytes());
    // The generated program and its analysis context — a generator tweak
    // moves exactly the cells whose source changed.
    h = fnv1a_extend(h, w.source().as_bytes());
    for (k, v) in w.context_pairs() {
        h = fnv1a_extend(h, k.as_bytes());
        h = fnv1a_extend(h, &v.to_le_bytes());
    }
    for a in w.output_arrays() {
        h = fnv1a_extend(h, a.as_bytes());
    }
    h = model_fingerprint(h, spec);
    options_fingerprint(h, &Options::default())
}

/// Content-hash one scenario's simulation inputs: canonical spec bytes +
/// generated workload source/context + all model constants + interpreter
/// option fingerprint + registry code fingerprint + engine revision.
/// `None` when the workload is unknown to the registry (such a scenario
/// can only become an error row, which is never reusable anyway).
pub fn scenario_input_hash(spec: &ScenarioSpec) -> Option<u64> {
    let entry = workloads::find(&spec.workload)?;
    let w = (entry.make)(spec.size, spec.np);
    Some(scenario_input_hash_with(
        spec,
        &*w,
        workloads::registry_fingerprint(),
    ))
}

/// Render an input hash the way the artifact stores it (16 hex digits).
pub fn hash_to_hex(h: u64) -> String {
    format!("{h:016x}")
}

/// Parse an artifact's `input_hash` field back.
pub fn hash_from_hex(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::transform_workload;
    use crate::spec::{ModelSpec, SizeClass, Variant};

    fn spec(model: ModelSpec, tile: Option<i64>) -> ScenarioSpec {
        ScenarioSpec {
            workload: "direct2d".into(),
            size: SizeClass::Small,
            np: 2,
            model,
            tile_size: tile,
            variant: Variant::Compare,
        }
    }

    fn workload_of(s: &ScenarioSpec) -> Box<dyn Workload> {
        (workloads::find(&s.workload).unwrap().make)(s.size, s.np)
    }

    #[test]
    fn original_is_shared_across_models_and_tiles() {
        let cache = CompileCache::new();
        let a = spec(ModelSpec::Mpich, None);
        let b = spec(ModelSpec::MpichGm, Some(8));
        cache.original(&a, &*workload_of(&a));
        let before = cache.stats();
        cache.original(&b, &*workload_of(&b));
        let after = cache.stats();
        assert_eq!(after.since(&before), CacheStats { hits: 1, misses: 0 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn transform_keyed_by_kselect_constants_not_model_name() {
        let cache = CompileCache::new();
        // mpich-beta:1 has exactly mpich's constants — one cache entry.
        let a = spec(ModelSpec::Mpich, None);
        let b = spec(ModelSpec::MpichBeta(1.0), None);
        let (out_a, _) = cache.transformed(&a, &*workload_of(&a), &a.model.to_model());
        let before = cache.stats();
        let (out_b, _) = cache.transformed(&b, &*workload_of(&b), &b.model.to_model());
        assert_eq!(cache.stats().since(&before), CacheStats { hits: 1, misses: 0 });
        assert!(Arc::ptr_eq(&out_a, &out_b), "one Arc-shared transform");
        // A genuinely different stack misses.
        let c = spec(ModelSpec::MpichGm, None);
        cache.transformed(&c, &*workload_of(&c), &c.model.to_model());
        assert_eq!(cache.stats().misses, 2);
        // Tile requests key separately.
        let d = spec(ModelSpec::MpichGm, Some(64));
        cache.transformed(&d, &*workload_of(&d), &d.model.to_model());
        assert_eq!(cache.stats().misses, 3);
    }

    /// Generalizes the Arc::ptr_eq pin above to every model family: two
    /// *distinct* ModelSpecs share one transform entry exactly when their
    /// canonical capability fingerprints match — never otherwise.
    #[test]
    fn distinct_models_share_transform_entries_iff_fingerprints_match() {
        use clustersim::HeteroProfile;
        let cache = CompileCache::new();
        let models = [
            ModelSpec::Mpich,
            ModelSpec::MpichGm,
            ModelSpec::RdmaIdeal,
            ModelSpec::MpichBeta(1.0), // mpich's constants — must share with it
            ModelSpec::MpichBeta(0.5),
            ModelSpec::Congested { links: 1, load: 2.0 },
            ModelSpec::Congested { links: 2, load: 2.0 },
            ModelSpec::Hetero(HeteroProfile::HalfSlow),
            ModelSpec::Hetero(HeteroProfile::Straggler),
        ];
        let outs: Vec<(String, u64, Arc<TransformOutput>)> = models
            .iter()
            .map(|m| {
                let s = spec(m.clone(), None);
                let model = m.to_model();
                let (out, _) = cache.transformed(&s, &*workload_of(&s), &model);
                (m.id(), transform_model_fingerprint(&model, s.np), out)
            })
            .collect();
        let mut shared_pairs = 0;
        for (i, (ida, fa, oa)) in outs.iter().enumerate() {
            for (idb, fb, ob) in &outs[i + 1..] {
                assert_eq!(
                    fa == fb,
                    Arc::ptr_eq(oa, ob),
                    "{ida} vs {idb}: entries must be shared iff fingerprints match"
                );
                if fa == fb {
                    shared_pairs += 1;
                }
            }
        }
        assert!(shared_pairs >= 1, "mpich / mpich-beta:1 must share");
        assert!(
            outs.iter().map(|(_, f, _)| f).collect::<std::collections::HashSet<_>>().len() >= 7,
            "the families must produce mostly-distinct fingerprints"
        );
    }

    /// The emission level is sound and counts what it should: across the
    /// registry at standard size, np {8, 16, 32} and ten models of every
    /// family, each cached transform equals a fresh `transform_workload`
    /// (program text and per-model report), and the gate ran exactly once
    /// per distinct (emitted text, np, context) — far fewer times than
    /// there were transform shapes.
    #[test]
    fn emissions_are_gated_once_each_and_match_fresh_transforms() {
        use clustersim::HeteroProfile;
        let models = [
            ModelSpec::Mpich,
            ModelSpec::MpichGm,
            ModelSpec::RdmaIdeal,
            ModelSpec::MpichBeta(0.25),
            ModelSpec::MpichBeta(2.0),
            ModelSpec::MpichBeta(8.0),
            ModelSpec::Congested { links: 1, load: 2.0 },
            ModelSpec::Congested { links: 4, load: 3.0 },
            ModelSpec::Hetero(HeteroProfile::HalfSlow),
            ModelSpec::Hetero(HeteroProfile::Straggler),
        ];
        let cache = CompileCache::new();
        let mut gated = 0;
        let mut distinct = std::collections::HashSet::new();
        for entry in workloads::registry() {
            for np in [8usize, 16, 32] {
                let w = (entry.make)(SizeClass::Standard, np);
                for m in &models {
                    let s = ScenarioSpec {
                        workload: entry.name.into(),
                        size: SizeClass::Standard,
                        np,
                        model: m.clone(),
                        tile_size: None,
                        variant: Variant::Compare,
                    };
                    let model = m.to_model();
                    let (out, _) = cache.transformed(&s, &*w, &model);
                    let fresh = transform_workload(&*w, &model, None);
                    let text = fir::unparse(&out.program);
                    let label = s.key();
                    assert_eq!(text, fir::unparse(&fresh.program), "{label}: program");
                    assert_eq!(
                        format!("{:?}", out.report),
                        format!("{:?}", fresh.report),
                        "{label}: report"
                    );
                    if out.report.applied_count() > 0 {
                        gated += 1;
                        distinct.insert((text, np, w.context_pairs()));
                    }
                }
            }
        }
        let shapes = cache.stats();
        let gate = cache.gate_stats();
        assert_eq!(shapes, CacheStats { hits: 0, misses: 240 });
        assert_eq!(gate.misses, distinct.len() as u64, "one verification per emission");
        assert_eq!(gate.hits + gate.misses, gated, "every applied shape consults the gate");
        assert!(
            gate.misses * 2 < shapes.misses,
            "{} verifications for {} transform shapes",
            gate.misses,
            shapes.misses
        );
    }

    /// Eight workers, eight distinct capability fingerprints, one emitted
    /// program: the shape level misses eight times, the emission level
    /// verifies and compiles once — the losers of the race block on the
    /// emission's shard, then hit — and all share one compiled program.
    #[test]
    fn racing_models_verify_a_shared_emission_once() {
        let betas = [0.25, 0.5, 0.75, 1.5, 2.0, 3.0, 4.0, 8.0];
        let specs: Vec<ScenarioSpec> = betas
            .iter()
            .map(|f| ScenarioSpec {
                np: 4,
                ..spec(ModelSpec::MpichBeta(*f), None)
            })
            .collect();
        let fingerprints: std::collections::HashSet<u64> = specs
            .iter()
            .map(|s| transform_model_fingerprint(&s.model.to_model(), s.np))
            .collect();
        assert_eq!(fingerprints.len(), specs.len(), "eight distinct shapes");

        let cache = CompileCache::new();
        let start = std::sync::Barrier::new(specs.len());
        let results: Vec<(Arc<TransformOutput>, CompiledProgram)> = std::thread::scope(|scope| {
            let workers: Vec<_> = specs
                .iter()
                .map(|s| {
                    let (cache, start) = (&cache, &start);
                    scope.spawn(move || {
                        let w = workload_of(s);
                        start.wait();
                        cache.transformed(s, &*w, &s.model.to_model())
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });

        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 8 });
        assert_eq!(cache.gate_stats(), CacheStats { hits: 7, misses: 1 });
        let (first_out, first_compiled) = &results[0];
        assert_eq!(first_out.report.applied_count(), 1);
        for (out, compiled) in &results[1..] {
            assert_eq!(fir::unparse(&out.program), fir::unparse(&first_out.program));
            assert!(compiled.ptr_eq(first_compiled), "one shared compilation");
        }
    }

    /// The input-hash model section must cover family-specific constants:
    /// two congested levels (same base constants) and each hetero profile
    /// get distinct row hashes.
    #[test]
    fn input_hash_distinguishes_family_constants() {
        use clustersim::HeteroProfile;
        let hashes: Vec<u64> = [
            ModelSpec::MpichGm,
            ModelSpec::Congested { links: 1, load: 1.5 },
            ModelSpec::Congested { links: 1, load: 3.0 },
            ModelSpec::Congested { links: 2, load: 1.5 },
            ModelSpec::Hetero(HeteroProfile::HalfSlow),
            ModelSpec::Hetero(HeteroProfile::Straggler),
        ]
        .into_iter()
        .map(|m| scenario_input_hash(&spec(m, None)).unwrap())
        .collect();
        let distinct: std::collections::HashSet<_> = hashes.iter().collect();
        assert_eq!(distinct.len(), hashes.len(), "all rows must hash distinctly");
    }

    #[test]
    fn cached_compilations_rerun_identically() {
        let cache = CompileCache::new();
        let s = spec(ModelSpec::MpichGm, None);
        let w = workload_of(&s);
        let model = s.model.to_model();
        let fresh_out = transform_workload(&*w, &model, None);
        let fresh = interp::run_program(&fresh_out.program, s.np, &model).unwrap();
        let (out, compiled) = cache.transformed(&s, &*w, &model);
        let (out2, compiled2) = cache.transformed(&s, &*w, &model);
        assert_eq!(fir::unparse(&out.program), fir::unparse(&fresh_out.program));
        assert!(Arc::ptr_eq(&out, &out2));
        for c in [compiled, compiled2] {
            let r = c.run(s.np, &model).unwrap();
            assert_eq!(r.outputs, fresh.outputs);
            assert_eq!(r.report.makespan(), fresh.report.makespan());
        }
    }

    #[test]
    fn input_hash_is_stable_and_axis_sensitive() {
        let base = spec(ModelSpec::MpichGm, None);
        let h = scenario_input_hash(&base).unwrap();
        assert_eq!(scenario_input_hash(&base).unwrap(), h, "deterministic");

        let mut np4 = base.clone();
        np4.np = 4;
        let mut tiled = base.clone();
        tiled.tile_size = Some(64);
        let mut variant = base.clone();
        variant.variant = Variant::Original;
        let mut model = base.clone();
        model.model = ModelSpec::Mpich;
        let mut size = base.clone();
        size.size = SizeClass::Medium;
        for (what, other) in [
            ("np", &np4),
            ("tile", &tiled),
            ("variant", &variant),
            ("model", &model),
            ("size", &size),
        ] {
            assert_ne!(
                scenario_input_hash(other).unwrap(),
                h,
                "{what} axis must move the hash"
            );
        }
        assert_eq!(scenario_input_hash(&spec_unknown()), None);
    }

    fn spec_unknown() -> ScenarioSpec {
        ScenarioSpec {
            workload: "no-such-kernel".into(),
            size: SizeClass::Small,
            np: 2,
            model: ModelSpec::Mpich,
            tile_size: None,
            variant: Variant::Compare,
        }
    }

    #[test]
    fn registry_fingerprint_folds_into_every_hash() {
        let s = spec(ModelSpec::MpichGm, None);
        let w = workload_of(&s);
        let a = scenario_input_hash_with(&s, &*w, 1);
        let b = scenario_input_hash_with(&s, &*w, 2);
        assert_ne!(a, b, "a registry-fingerprint change invalidates rows");
        assert_eq!(
            scenario_input_hash_with(&s, &*w, workloads::registry_fingerprint()),
            scenario_input_hash(&s).unwrap()
        );
    }

    #[test]
    fn warm_probe_tracks_fill_without_moving_counters() {
        let cache = CompileCache::new();
        let s = spec(ModelSpec::MpichGm, None);
        assert!(!cache.warm_for(&s));
        cache.original(&s, &*workload_of(&s));
        assert!(!cache.warm_for(&s), "compare also needs the transform");
        let mut orig_only = s.clone();
        orig_only.variant = Variant::Original;
        assert!(cache.warm_for(&orig_only), "original-only is warm already");
        cache.transformed(&s, &*workload_of(&s), &s.model.to_model());
        let before = cache.stats();
        assert!(cache.warm_for(&s));
        let mut prepush = s.clone();
        prepush.variant = Variant::Prepush;
        assert!(cache.warm_for(&prepush));
        assert_eq!(
            cache.stats().since(&before),
            CacheStats { hits: 0, misses: 0 },
            "probes never move the hit/miss counters"
        );
    }

    #[test]
    fn hex_roundtrip() {
        for h in [0u64, 1, 0xdead_beef_cafe_f00d, u64::MAX] {
            assert_eq!(hash_from_hex(&hash_to_hex(h)), Some(h));
        }
        assert_eq!(hash_from_hex("xyz"), None);
        assert_eq!(hash_from_hex("123"), None);
        assert_eq!(hash_from_hex("00000000000000000"), None); // 17 digits
    }
}
