//! The benchmark specification: scale presets and the workload driver.
//!
//! Fig. 3 of the paper names four document scales; [`Scale`] reproduces
//! them (plus the two miniature scales of Fig. 4's embedded-system
//! experiment). The load/measure functions tie a scale to a set of
//! systems and queries and produce the measurements the harness formats
//! into the paper's tables.

use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xmark_gen::{generate_sharded, GenStats, Generator, GeneratorConfig};
use xmark_query::{
    compile, execute, parse_query, verify_plan_against, CompileStats, Compiled, PlanMode,
    ResultStream, Sequence, StreamStats, VerifyReport,
};
use xmark_store::{build_store, PagedStore, ShardedStore, SystemId, XmlStore, DEFAULT_POOL_PAGES};
use xmark_txn::VersionedStore;

use crate::queries::query;

/// A named document scale (paper Fig. 3 + the Fig. 4 miniatures).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Preset name.
    pub name: &'static str,
    /// Scaling factor.
    pub factor: f64,
    /// Nominal document size, as the paper states it.
    pub nominal: &'static str,
}

/// The scales of Fig. 3, plus Fig. 4's 100 kB / 1 MB miniatures.
pub const SCALES: [Scale; 6] = [
    Scale {
        name: "mini",
        factor: 0.001,
        nominal: "100 kB",
    },
    Scale {
        name: "small",
        factor: 0.01,
        nominal: "1 MB",
    },
    Scale {
        name: "tiny",
        factor: 0.1,
        nominal: "10 MB",
    },
    Scale {
        name: "standard",
        factor: 1.0,
        nominal: "100 MB",
    },
    Scale {
        name: "large",
        factor: 10.0,
        nominal: "1 GB",
    },
    Scale {
        name: "huge",
        factor: 100.0,
        nominal: "10 GB",
    },
];

/// Look up a scale preset by name.
pub fn scale(name: &str) -> Option<Scale> {
    SCALES.iter().copied().find(|s| s.name == name)
}

/// Result of generating a document.
#[derive(Debug, Clone)]
pub struct GeneratedDocument {
    /// The XML text.
    pub xml: String,
    /// Generator statistics.
    pub stats: GenStats,
    /// Wall time the generator took.
    pub elapsed: Duration,
}

/// Generate the canonical benchmark document at `factor` (seed 0).
pub fn generate_document(factor: f64) -> GeneratedDocument {
    let start = Instant::now();
    let generator = Generator::new(GeneratorConfig::at_factor(factor));
    let mut buf = Vec::new();
    let stats = generator
        .write(&mut buf)
        .expect("writing to a Vec cannot fail");
    let xml = String::from_utf8(buf).expect("generator emits ASCII");
    let elapsed = start.elapsed();
    GeneratedDocument {
        xml,
        stats,
        elapsed,
    }
}

/// One bulkload measurement (a row of the paper's Table 1).
pub struct LoadedStore {
    /// The system.
    pub system: SystemId,
    /// The loaded store.
    pub store: Box<dyn XmlStore>,
    /// Bulkload wall time (parse + conversion + index build).
    pub load_time: Duration,
    /// Resident size of the store's structures.
    pub size_bytes: usize,
}

/// Bulkload `xml` into `system`, measuring Table 1's two columns.
///
/// # Panics
/// Panics if the canonical generated document fails to parse — that would
/// be a generator bug, not a caller error.
pub fn load_system(system: SystemId, xml: &str) -> LoadedStore {
    let start = Instant::now();
    let store = build_store(system, xml).expect("benchmark document must parse");
    let load_time = start.elapsed();
    let size_bytes = store.size_bytes();
    LoadedStore {
        system,
        store,
        load_time,
        size_bytes,
    }
}

/// Open a previously persisted backend-H page file **cold**: no XML
/// generation, no parse — the header and catalog pages are the only
/// reads until queries arrive. `pool_pages` is the buffer-pool frame
/// budget (`None` = [`DEFAULT_POOL_PAGES`]); `load_time` in the returned
/// row is the open time.
///
/// # Errors
/// I/O failure, a torn bulkload (WAL without its end marker), or page
/// corruption in the header/catalog.
pub fn open_paged(path: &Path, pool_pages: Option<usize>) -> std::io::Result<LoadedStore> {
    let start = Instant::now();
    let store = PagedStore::open(path, pool_pages.unwrap_or(DEFAULT_POOL_PAGES))?;
    let load_time = start.elapsed();
    let size_bytes = store.size_bytes();
    Ok(LoadedStore {
        system: SystemId::H,
        store: Box::new(store),
        load_time,
        size_bytes,
    })
}

/// Open a persisted backend-H page file and wrap it as a
/// [`VersionedStore`] ready for transactions: committed structural
/// updates in the WAL are replayed ([`xmark_txn::recover_paged`]), torn
/// tails are truncated, and uncommitted transactions are discarded — the
/// cold-start crash-recovery path.
///
/// # Errors
/// As [`open_paged`], plus replay failure on a corrupted log.
pub fn open_paged_versioned(
    path: &Path,
    pool_pages: Option<usize>,
) -> std::io::Result<(Arc<VersionedStore>, xmark_txn::RecoveryReport)> {
    xmark_txn::recover_paged(path, pool_pages.unwrap_or(DEFAULT_POOL_PAGES))
}

/// One query measurement: the parse/plan/execute split of Table 2 and the
/// total of Table 3.
#[derive(Debug, Clone)]
pub struct QueryMeasurement {
    /// Query number (1–20).
    pub query: usize,
    /// System measured.
    pub system: SystemId,
    /// Parse wall time (text → AST).
    pub parse_time: Duration,
    /// Planning wall time (metadata resolution + optimization → physical
    /// plan).
    pub plan_time: Duration,
    /// Execution wall time.
    pub execute_time: Duration,
    /// Wall time from execution start to the *first* result item leaving
    /// the operator cursors — what a streaming consumer waits before the
    /// first byte. Equals `execute_time` for empty results.
    pub first_item_time: Duration,
    /// Metadata accesses during planning.
    pub metadata_accesses: u64,
    /// Result cardinality.
    pub result_items: usize,
    /// Serialized result size in bytes (Q10's "more than 10 MB" check).
    pub result_bytes: usize,
}

impl QueryMeasurement {
    /// Total compilation time (parse + plan): Table 2's "compile" column.
    pub fn compile_time(&self) -> Duration {
        self.parse_time + self.plan_time
    }

    /// Total time (Table 3's cell).
    pub fn total(&self) -> Duration {
        self.compile_time() + self.execute_time
    }

    /// Compilation share of the total, in percent (Table 2).
    pub fn compile_share_percent(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            100.0 * self.compile_time().as_secs_f64() / total
        }
    }
}

/// Run query `number` against a loaded store, timing all three phases
/// (parse, plan, execute) separately.
///
/// # Panics
/// Panics if one of the twenty canonical queries fails to compile or
/// execute — all are tested to run on every backend.
pub fn measure_query(loaded: &LoadedStore, number: usize) -> QueryMeasurement {
    let q = query(number);
    let store = loaded.store.as_ref();

    let parse_start = Instant::now();
    let parsed = xmark_query::parse_query(q.text)
        .unwrap_or_else(|e| panic!("Q{number} failed to parse: {e}"));
    let parse_time = parse_start.elapsed();

    let plan_start = Instant::now();
    let compiled = xmark_query::compile::plan(&parsed, store, PlanMode::Optimized);
    let plan_time = plan_start.elapsed();
    let metadata_accesses = compiled.stats.metadata_accesses;

    let execute_start = Instant::now();
    let mut stream = xmark_query::stream(&compiled, store);
    let mut result: Sequence = Vec::new();
    let mut first_item_time = None;
    while let Some(item) = stream.next_item() {
        let item = item.unwrap_or_else(|e| panic!("Q{number} failed on {}: {e}", loaded.system));
        if first_item_time.is_none() {
            first_item_time = Some(execute_start.elapsed());
        }
        result.push(item);
    }
    let execute_time = execute_start.elapsed();
    let first_item_time = first_item_time.unwrap_or(execute_time);

    let rendered = xmark_query::serialize_sequence(store, &result);
    QueryMeasurement {
        query: number,
        system: loaded.system,
        parse_time,
        plan_time,
        execute_time,
        first_item_time,
        metadata_accesses,
        result_items: result.len(),
        result_bytes: rendered.len(),
    }
}

/// Run query `number` and return its canonical output (for equivalence
/// checking).
///
/// # Panics
/// Panics if the query fails to compile or execute.
pub fn canonical_output(store: &dyn XmlStore, number: usize) -> String {
    let q = query(number);
    let compiled =
        compile(q.text, store).unwrap_or_else(|e| panic!("Q{number} failed to compile: {e}"));
    let result =
        execute(&compiled, store).unwrap_or_else(|e| panic!("Q{number} failed to execute: {e}"));
    xmark_query::canonicalize(store, &result)
}

/// A query compiled once against one shared store, ready for repeated
/// execution: re-running it skips parse and plan entirely, and the
/// Table 2 statistics (metadata accesses, estimates) are collected once
/// instead of per call.
///
/// Produced by [`Session::prepare`] or [`PreparedQuery::new`]; the
/// service layer's plan cache stores the same [`Compiled`] artifact.
pub struct PreparedQuery {
    store: Arc<dyn XmlStore>,
    compiled: Arc<Compiled>,
}

impl PreparedQuery {
    /// Compile `text` against `store`.
    ///
    /// # Panics
    /// Panics if the query does not parse — prepared statements are for
    /// known-good query text (the benchmark queries all are).
    pub fn new(store: Arc<dyn XmlStore>, text: &str) -> Self {
        let compiled = compile(text, store.as_ref())
            .unwrap_or_else(|e| panic!("query failed to compile: {e}"));
        PreparedQuery {
            store,
            compiled: Arc::new(compiled),
        }
    }

    /// Execute the prepared plan (no parse, no plan), materializing the
    /// whole result — the same drain on a sharded union as on a
    /// monolithic store.
    ///
    /// # Panics
    /// Panics on evaluation errors, mirroring the façade's other helpers.
    pub fn execute(&self) -> Sequence {
        execute(&self.compiled, self.store.as_ref())
            .unwrap_or_else(|e| panic!("prepared query failed to execute: {e}"))
    }

    /// Open a pull-based result stream over the prepared plan: items are
    /// produced on demand, so `stream().take(n)` / `.exists()` stop
    /// executing as soon as the answer is known.
    pub fn stream(&self) -> ResultStream<'_> {
        xmark_query::stream(&self.compiled, self.store.as_ref())
    }

    /// At most the first `n` result items, pulling nothing past them.
    ///
    /// # Panics
    /// Panics on evaluation errors.
    pub fn take(&self, n: usize) -> Sequence {
        self.stream()
            .take(n)
            .unwrap_or_else(|e| panic!("prepared query failed to execute: {e}"))
    }

    /// Whether the result has at least one item — pulls at most one.
    ///
    /// # Panics
    /// Panics on evaluation errors.
    pub fn exists(&self) -> bool {
        self.stream()
            .exists()
            .unwrap_or_else(|e| panic!("prepared query failed to execute: {e}"))
    }

    /// The result cardinality, without keeping or serializing any item.
    ///
    /// # Panics
    /// Panics on evaluation errors.
    pub fn count(&self) -> usize {
        self.stream()
            .count()
            .unwrap_or_else(|e| panic!("prepared query failed to execute: {e}"))
    }

    /// Execute and serialize straight into `sink`, one item per line,
    /// byte-identical to serializing [`PreparedQuery::execute`]'s result —
    /// without materializing it.
    ///
    /// # Panics
    /// Panics on evaluation errors or sink failures.
    pub fn write_to<W: fmt::Write + ?Sized>(&self, sink: &mut W) -> StreamStats {
        self.stream()
            .write_to(sink)
            .unwrap_or_else(|e| panic!("prepared query failed to stream: {e}"))
    }

    /// The physical plan, one line per operator.
    pub fn explain(&self) -> String {
        self.compiled.explain()
    }

    /// Compile-phase statistics, collected exactly once at prepare time.
    pub fn stats(&self) -> &CompileStats {
        &self.compiled.stats
    }

    /// The underlying compiled artifact.
    pub fn compiled(&self) -> &Compiled {
        &self.compiled
    }

    /// The store the query was planned against.
    pub fn store(&self) -> &Arc<dyn XmlStore> {
        &self.store
    }
}

// ---- the session façade ----------------------------------------------------

/// Builder-style entry point for a benchmark session.
///
/// Examples, tests and the report binaries used to hand-roll the same
/// generate → load → measure loop; `Benchmark` packages it:
///
/// ```
/// use xmark::prelude::*;
///
/// let report = Benchmark::at_scale("mini")
///     .systems(&[SystemId::D, SystemId::G])
///     .queries(1..=3)
///     .run();
/// assert_eq!(report.measurement(SystemId::D, 1).unwrap().result_items, 1);
/// ```
///
/// [`Benchmark::generate`] stops after document generation and returns a
/// [`Session`] for callers that need custom measurement (the
/// Table 2 phase split).
#[derive(Debug, Clone)]
pub struct Benchmark {
    scale: Option<Scale>,
    factor: f64,
    systems: Vec<SystemId>,
    queries: Vec<usize>,
    warmups: usize,
}

impl Benchmark {
    /// Start from a named scale preset (see [`SCALES`]).
    ///
    /// # Panics
    /// Panics if `name` is not one of the presets.
    pub fn at_scale(name: &str) -> Self {
        let preset = scale(name).unwrap_or_else(|| {
            let names: Vec<&str> = SCALES.iter().map(|s| s.name).collect();
            panic!("unknown scale {name:?}; presets are {names:?}")
        });
        Benchmark {
            scale: Some(preset),
            factor: preset.factor,
            systems: SystemId::ALL.to_vec(),
            queries: (1..=20).collect(),
            warmups: 0,
        }
    }

    /// Start from a raw scaling factor.
    pub fn at_factor(factor: f64) -> Self {
        Benchmark {
            scale: None,
            factor,
            systems: SystemId::ALL.to_vec(),
            queries: (1..=20).collect(),
            warmups: 0,
        }
    }

    /// Restrict the session to these systems (default: all seven).
    pub fn systems(mut self, systems: &[SystemId]) -> Self {
        self.systems = systems.to_vec();
        self
    }

    /// Restrict the session to these query numbers (default: `1..=20`).
    pub fn queries(mut self, queries: impl IntoIterator<Item = usize>) -> Self {
        self.queries = queries.into_iter().collect();
        self
    }

    /// Run each (system, query) pair `n` unrecorded times before the
    /// measured run (default: 0). The report binaries use one warm-up to
    /// de-noise the microsecond-scale Table 3 cells.
    pub fn warmups(mut self, n: usize) -> Self {
        self.warmups = n;
        self
    }

    /// Generate the document and return the open session without loading
    /// or measuring anything yet.
    pub fn generate(self) -> Session {
        let generated = generate_document(self.factor);
        Session {
            scale: self.scale,
            factor: self.factor,
            generated,
            systems: self.systems,
            queries: self.queries,
            warmups: self.warmups,
        }
    }

    /// Generate, bulkload every selected system, measure every selected
    /// query on each, and return the full report.
    pub fn run(self) -> BenchmarkReport {
        self.generate().run()
    }
}

/// An open benchmark session: one generated document plus the selected
/// systems and queries. Produced by [`Benchmark::generate`].
pub struct Session {
    scale: Option<Scale>,
    factor: f64,
    generated: GeneratedDocument,
    systems: Vec<SystemId>,
    queries: Vec<usize>,
    warmups: usize,
}

impl Session {
    /// The scale preset this session was built from, if any.
    pub fn scale(&self) -> Option<Scale> {
        self.scale
    }

    /// The scaling factor.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// The generated XML text.
    pub fn xml(&self) -> &str {
        &self.generated.xml
    }

    /// Generator statistics (bytes, elements, depth, cardinalities).
    pub fn stats(&self) -> &GenStats {
        &self.generated.stats
    }

    /// Wall time the generator took.
    pub fn generation_time(&self) -> Duration {
        self.generated.elapsed
    }

    /// The systems selected for this session.
    pub fn systems(&self) -> &[SystemId] {
        &self.systems
    }

    /// The query numbers selected for this session.
    pub fn queries(&self) -> &[usize] {
        &self.queries
    }

    /// Bulkload one system (not necessarily a selected one).
    pub fn load(&self, system: SystemId) -> LoadedStore {
        load_system(system, &self.generated.xml)
    }

    /// Bulkload every selected system, in selection order.
    pub fn load_all(&self) -> Vec<LoadedStore> {
        self.systems.iter().map(|&s| self.load(s)).collect()
    }

    /// Bulkload the disk-resident backend H with an explicit buffer-pool
    /// frame budget (`None` = [`DEFAULT_POOL_PAGES`]). The page and WAL
    /// files land in the scratch directory and are deleted when the
    /// store drops; use [`Session::persist_paged`] for a file that
    /// outlives the session.
    pub fn load_paged(&self, pool_pages: Option<usize>) -> LoadedStore {
        let start = Instant::now();
        let store = PagedStore::load_temp(
            &self.generated.xml,
            pool_pages.unwrap_or(DEFAULT_POOL_PAGES),
        )
        .expect("benchmark document must parse");
        let load_time = start.elapsed();
        let size_bytes = store.size_bytes();
        LoadedStore {
            system: SystemId::H,
            store: Box::new(store),
            load_time,
            size_bytes,
        }
    }

    /// Bulkload backend H into a page file at `path` that outlives this
    /// session; re-open it later — cold, without re-parsing the XML —
    /// via [`open_paged`].
    ///
    /// # Errors
    /// I/O failure writing the page or WAL file.
    pub fn persist_paged(
        &self,
        path: &Path,
        pool_pages: Option<usize>,
    ) -> std::io::Result<PagedStore> {
        let doc =
            xmark_xml::parse_document(&self.generated.xml).expect("benchmark document must parse");
        PagedStore::create_at(path, &doc, pool_pages.unwrap_or(DEFAULT_POOL_PAGES))
    }

    /// Bulkload `system` and share it behind an `Arc` — the shape the
    /// concurrent service layer consumes.
    pub fn load_shared(&self, system: SystemId) -> Arc<dyn XmlStore> {
        Arc::from(self.load(system).store)
    }

    /// Re-generate this session's document as `entity_shards` shard files
    /// plus the global head (entity content byte-identical to the
    /// monolithic document — per-entity RNG streams make the split exact)
    /// and bulkload each into its own `system` store under a
    /// [`ShardedStore`] union view, whose cursors concatenate the shard
    /// runs in document order: queries run through the same executor as
    /// on a monolithic store.
    ///
    /// # Panics
    /// Panics if a shard document fails to parse or the shard skeletons
    /// mismatch — both would be generator bugs.
    pub fn load_sharded(&self, system: SystemId, entity_shards: usize) -> LoadedStore {
        let start = Instant::now();
        let files = generate_sharded(&GeneratorConfig::at_factor(self.factor), entity_shards);
        let docs: Vec<&str> = files.iter().map(|f| f.content.as_str()).collect();
        let store =
            ShardedStore::load(system, &docs).expect("sharded benchmark documents must load");
        let load_time = start.elapsed();
        let size_bytes = store.size_bytes();
        LoadedStore {
            system,
            store: Box::new(store),
            load_time,
            size_bytes,
        }
    }

    /// [`Session::load_sharded`] behind an `Arc`, for the service layer.
    pub fn load_sharded_shared(&self, system: SystemId, entity_shards: usize) -> Arc<dyn XmlStore> {
        Arc::from(self.load_sharded(system, entity_shards).store)
    }

    /// Sharded deployment of the disk-resident backend H: each shard
    /// document is bulkloaded into its **own page file**, closed, and
    /// re-opened **cold** — the union starts with every buffer pool empty
    /// and only the per-shard header/catalog pages read, exactly how a
    /// scale-out H deployment would boot. `pool_pages` is the frame
    /// budget **per shard** (`None` = [`DEFAULT_POOL_PAGES`]); the page
    /// files are deleted when the union drops.
    ///
    /// # Panics
    /// Panics on generator bugs (shard documents failing to parse) or
    /// scratch-file I/O failure, mirroring [`Session::load_paged`].
    pub fn load_sharded_paged(
        &self,
        entity_shards: usize,
        pool_pages: Option<usize>,
    ) -> LoadedStore {
        let start = Instant::now();
        let files = generate_sharded(&GeneratorConfig::at_factor(self.factor), entity_shards);
        let budget = pool_pages.unwrap_or(DEFAULT_POOL_PAGES);
        let dir = xmark_store::paged::scratch_dir();
        static SEQ: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let union_id = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut shards: Vec<Box<dyn XmlStore>> = Vec::with_capacity(files.len());
        for (k, file) in files.iter().enumerate() {
            let doc = xmark_xml::parse_document(&file.content).expect("shard document must parse");
            let path = dir.join(format!(
                "shard-{}-{union_id}-{k:03}.pages",
                std::process::id()
            ));
            // Bulkload, drop (flushing every page), then open cold: the
            // pool the union queries through starts empty.
            drop(PagedStore::create_at(&path, &doc, budget).expect("shard page file bulkload"));
            let mut shard = PagedStore::open(&path, budget).expect("shard page file cold open");
            shard.mark_ephemeral();
            shards.push(Box::new(shard));
        }
        let store = ShardedStore::from_shards(shards).expect("shard skeletons must match");
        let load_time = start.elapsed();
        let size_bytes = store.size_bytes();
        LoadedStore {
            system: SystemId::H,
            store: Box::new(store),
            load_time,
            size_bytes,
        }
    }

    /// Bulkload `system` and compile `text` against it once, returning a
    /// reusable prepared query: repeated [`PreparedQuery::execute`] calls
    /// skip parse and plan, and each of `stream`/`take`/`exists`/`count`/
    /// `write_to` opens a fresh pull that stops as soon as the answer is
    /// known.
    ///
    /// ```
    /// use xmark::prelude::*;
    ///
    /// let session = Benchmark::at_scale("mini").generate();
    /// let people = session.prepare(SystemId::G, "/site/people/person");
    /// assert!(people.exists());            // pulls one person, stops
    /// let first_two = people.take(2);      // pulls two, stops
    /// assert_eq!(first_two.len(), 2);
    /// ```
    pub fn prepare(&self, system: SystemId, text: &str) -> PreparedQuery {
        PreparedQuery::new(self.load_shared(system), text)
    }

    /// Bulkload `system`, compile `text` in `mode`, and run the
    /// post-optimizer plan verifier ([`xmark_query::verify`]) over the
    /// result: every structural invariant of the physical algebra is
    /// re-checked against the live store and reported per invariant.
    /// Debug builds verify every compile implicitly; this is the explicit
    /// entry point for release builds and audits.
    ///
    /// # Panics
    /// Panics if the query does not parse — verification is for plans,
    /// not for syntax errors.
    pub fn verify_plan(&self, system: SystemId, text: &str, mode: PlanMode) -> VerifyReport {
        let loaded = self.load(system);
        let store = loaded.store.as_ref();
        let query = parse_query(text).unwrap_or_else(|e| panic!("query failed to parse: {e}"));
        let compiled = xmark_query::compile::plan(&query, store, mode);
        verify_plan_against(&query, &compiled.plan, store)
    }

    /// Load everything, measure every selected query on every selected
    /// system, and close the session into a report.
    pub fn run(self) -> BenchmarkReport {
        let loads = self.load_all();
        let mut measurements = Vec::with_capacity(loads.len() * self.queries.len());
        for loaded in &loads {
            for &q in &self.queries {
                for _ in 0..self.warmups {
                    let _ = measure_query(loaded, q);
                }
                measurements.push(measure_query(loaded, q));
            }
        }
        BenchmarkReport {
            scale: self.scale,
            factor: self.factor,
            document: self.generated,
            queries: self.queries,
            loads,
            measurements,
        }
    }
}

/// Everything a benchmark session produced: the document, the loaded
/// stores (kept alive so callers can run follow-up queries), and one
/// [`QueryMeasurement`] per (system, query) pair.
pub struct BenchmarkReport {
    /// The scale preset, if the session used one.
    pub scale: Option<Scale>,
    /// The scaling factor.
    pub factor: f64,
    /// The generated document.
    pub document: GeneratedDocument,
    /// The measured query numbers, in run order.
    pub queries: Vec<usize>,
    /// One loaded store per selected system, in selection order.
    pub loads: Vec<LoadedStore>,
    /// All measurements, grouped by system in selection order.
    pub measurements: Vec<QueryMeasurement>,
}

impl BenchmarkReport {
    /// The systems measured, in selection order.
    pub fn systems(&self) -> impl Iterator<Item = SystemId> + '_ {
        self.loads.iter().map(|l| l.system)
    }

    /// The load row for `system`.
    pub fn load(&self, system: SystemId) -> Option<&LoadedStore> {
        self.loads.iter().find(|l| l.system == system)
    }

    /// The measurement for (`system`, `query`).
    pub fn measurement(&self, system: SystemId, query: usize) -> Option<&QueryMeasurement> {
        self.measurements
            .iter()
            .find(|m| m.system == system && m.query == query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_match_figure_3() {
        assert_eq!(scale("standard").unwrap().factor, 1.0);
        assert_eq!(scale("tiny").unwrap().factor, 0.1);
        assert_eq!(scale("large").unwrap().factor, 10.0);
        assert_eq!(scale("huge").unwrap().factor, 100.0);
        assert!(scale("nonsense").is_none());
    }

    #[test]
    fn generate_load_measure_roundtrip() {
        let doc = generate_document(0.001);
        assert!(doc.stats.bytes > 10_000);
        let loaded = load_system(SystemId::D, &doc.xml);
        assert!(loaded.size_bytes > 0);
        let m = measure_query(&loaded, 1);
        assert_eq!(m.query, 1);
        assert_eq!(m.result_items, 1, "Q1 returns person0's name");
        assert!(m.compile_share_percent() >= 0.0);
    }

    #[test]
    fn generator_stats_are_populated() {
        // The Table 1 report depends on real element/depth counts; they
        // used to be hardcoded to zero.
        let doc = generate_document(0.001);
        assert_eq!(doc.stats.bytes as usize, doc.xml.len());
        assert!(
            doc.stats.elements > 1000,
            "elements: {}",
            doc.stats.elements
        );
        assert!(
            doc.stats.max_depth >= 5,
            "max_depth: {}",
            doc.stats.max_depth
        );
        // The stats agree with a full parse of the document.
        let parsed = xmark_xml::parse_document(&doc.xml).unwrap();
        let elements = parsed.all_nodes().filter(|&n| parsed.is_element(n)).count() as u64;
        assert_eq!(doc.stats.elements, elements);
    }

    #[test]
    fn benchmark_facade_runs_a_session() {
        let report = Benchmark::at_scale("mini")
            .systems(&[SystemId::D, SystemId::G])
            .queries([1, 6])
            .warmups(1)
            .run();
        assert_eq!(report.scale.unwrap().name, "mini");
        assert_eq!(
            report.systems().collect::<Vec<_>>(),
            vec![SystemId::D, SystemId::G]
        );
        assert_eq!(report.measurements.len(), 4);
        let d1 = report.measurement(SystemId::D, 1).unwrap();
        assert_eq!(d1.result_items, 1);
        let g6 = report.measurement(SystemId::G, 6).unwrap();
        assert_eq!(
            g6.result_items,
            report.measurement(SystemId::D, 6).unwrap().result_items,
            "D and G disagree on Q6"
        );
        // The loaded stores stay usable after the run.
        let store = &report.load(SystemId::D).unwrap().store;
        assert!(store.node_count() > 1000);
    }

    #[test]
    fn benchmark_facade_open_session_supports_custom_measurement() {
        let session = Benchmark::at_factor(0.001)
            .systems(&[SystemId::A])
            .queries([2])
            .generate();
        assert!(session.stats().elements > 0);
        let loaded = session.load(SystemId::A);
        let m = measure_query(&loaded, 2);
        assert!(m.metadata_accesses > 0);
    }

    #[test]
    #[should_panic(expected = "unknown scale")]
    fn benchmark_facade_rejects_unknown_scales() {
        let _ = Benchmark::at_scale("galactic");
    }

    #[test]
    fn measurements_split_all_three_phases() {
        let doc = generate_document(0.001);
        let loaded = load_system(SystemId::A, &doc.xml);
        let m = measure_query(&loaded, 1);
        assert_eq!(m.compile_time(), m.parse_time + m.plan_time);
        assert_eq!(m.total(), m.parse_time + m.plan_time + m.execute_time);
        assert!(m.metadata_accesses > 0, "planning touches the catalog");
        assert!(
            m.first_item_time <= m.execute_time,
            "the first item cannot arrive after the last"
        );
    }

    #[test]
    fn prepared_stream_agrees_with_execute_and_short_circuits() {
        let session = Benchmark::at_factor(0.001).generate();
        let prepared = session.prepare(SystemId::E, query(2).text);
        let materialized = prepared.execute();
        // Byte-identical serialization through the sink path.
        let mut sunk = String::new();
        let stats = prepared.write_to(&mut sunk);
        let store = prepared.store().as_ref();
        assert_eq!(sunk, xmark_query::serialize_sequence(store, &materialized));
        assert_eq!(stats.items, materialized.len());
        assert_eq!(stats.bytes, sunk.len() as u64);
        // Fast paths agree with the materialized result.
        assert_eq!(prepared.count(), materialized.len());
        assert_eq!(prepared.exists(), !materialized.is_empty());
        assert_eq!(prepared.take(3), materialized[..3.min(materialized.len())]);
        // And pulling one item costs strictly fewer cursor pulls than a
        // full drain.
        let mut partial = prepared.stream();
        let _ = partial.next_item();
        let partial_pulls = partial.pulls();
        let mut full = prepared.stream();
        while full.next_item().is_some() {}
        let full_pulls = full.pulls();
        assert!(
            partial_pulls < full_pulls,
            "one pulled item must cost fewer cursor pulls ({partial_pulls} vs {full_pulls})"
        );
    }

    #[test]
    fn session_stream_handle_round_trips() {
        let session = Benchmark::at_factor(0.001).generate();
        let prepared = session.prepare(SystemId::G, "/site/people/person");
        assert!(prepared.exists());
        let two = prepared.take(2);
        assert_eq!(two.len(), 2);
        assert_eq!(prepared.count(), prepared.execute().len());
        let mut direct = String::new();
        let stats = prepared.write_to(&mut direct);
        assert_eq!(stats.items, prepared.count());
        assert!(stats.bytes > 0 && direct.len() as u64 == stats.bytes);
        // Iterator access yields the same first item as take(1).
        let first = prepared.stream().next().unwrap().unwrap();
        assert_eq!(vec![first], prepared.take(1));
    }

    #[test]
    fn prepared_queries_reuse_one_plan() {
        let session = Benchmark::at_factor(0.001).generate();
        let prepared = session.prepare(SystemId::D, query(1).text);
        // Stats were collected once, at prepare time. (System D reports no
        // metadata accesses — the summary *is* the metadata — so check the
        // resolved steps.)
        assert!(prepared.stats().steps_resolved > 0);
        assert!(prepared.explain().contains("PathScan"));
        let first = prepared.execute();
        let second = prepared.execute();
        assert_eq!(first.len(), 1, "Q1 returns person0's name");
        assert_eq!(first.len(), second.len());
        // The prepared plan agrees with a one-shot run.
        let one_shot = xmark_query::run_query(query(1).text, prepared.store().as_ref()).unwrap();
        assert_eq!(
            xmark_query::canonicalize(prepared.store().as_ref(), &first),
            xmark_query::canonicalize(prepared.store().as_ref(), &one_shot)
        );
    }

    #[test]
    fn canonical_outputs_agree_between_two_systems() {
        let doc = generate_document(0.001);
        let d = load_system(SystemId::D, &doc.xml);
        let g = load_system(SystemId::G, &doc.xml);
        for q in [1, 5, 6, 17] {
            assert_eq!(
                canonical_output(d.store.as_ref(), q),
                canonical_output(g.store.as_ref(), q),
                "Q{q} output differs between D and G"
            );
        }
    }

    #[test]
    fn sharded_session_matches_monolithic_outputs() {
        let session = Benchmark::at_factor(0.001).generate();
        let mono = session.load(SystemId::A);
        let sharded = session.load_sharded(SystemId::A, 2);
        assert_eq!(
            sharded.system,
            SystemId::A,
            "union reports its shard backend"
        );
        assert!(
            sharded.store.shard_part_count() >= 3,
            "head + 2 entity shards"
        );
        // An id lookup, a count over a FLWOR, a correlated join and an
        // ordered FLWOR.
        for q in [1, 5, 8, 19] {
            assert_eq!(
                canonical_output(sharded.store.as_ref(), q),
                canonical_output(mono.store.as_ref(), q),
                "Q{q} differs sharded vs monolithic"
            );
        }
        // The prepared-query façade runs through the same executor.
        let shared: Arc<dyn XmlStore> = Arc::from(sharded.store);
        let prepared = PreparedQuery::new(shared, query(5).text);
        assert!(
            !prepared.execute().is_empty(),
            "Q5 count lands on the union"
        );
    }

    #[test]
    fn sharded_paged_session_opens_cold_per_shard() {
        let session = Benchmark::at_factor(0.001).generate();
        let mono = session.load(SystemId::A);
        let sharded = session.load_sharded_paged(2, Some(64));
        assert_eq!(sharded.system, SystemId::H);
        assert_eq!(
            canonical_output(sharded.store.as_ref(), 6),
            canonical_output(mono.store.as_ref(), 6),
            "Q6 differs on cold sharded H"
        );
    }

    #[test]
    fn paged_session_persists_and_reopens_cold() {
        let session = Benchmark::at_factor(0.001)
            .systems(&[SystemId::A])
            .queries([1])
            .generate();

        // Scratch-file load through the session façade.
        let warm = session.load_paged(Some(64));
        assert_eq!(warm.system, SystemId::H);
        let q6_warm = canonical_output(warm.store.as_ref(), 6);

        // Persist to an explicit path, then cold-open without the XML.
        let path = xmark_store::paged::scratch_dir()
            .join(format!("spec-roundtrip-{}.pages", std::process::id()));
        let persisted = session.persist_paged(&path, Some(64)).unwrap();
        drop(persisted);
        let cold = open_paged(&path, Some(64)).unwrap();
        assert_eq!(cold.system, SystemId::H);
        assert_eq!(canonical_output(cold.store.as_ref(), 6), q6_warm);
        // The pool saw real traffic and the reporting hooks are live.
        let stats = cold.store.paged_stats().expect("H exposes pool stats");
        assert!(stats.pages_read > 0);
        assert!(cold.store.disk_bytes() > 0);

        drop(cold);
        let wal = path.with_extension("wal");
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&wal).unwrap();
    }
}
