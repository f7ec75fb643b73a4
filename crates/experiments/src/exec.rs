//! The shared fan-out engine behind every reproduction table.
//!
//! Each figure module declares its table as a [`TableSpec`]: a list of
//! independent [`Cell`]s (one simulation apiece) plus [`DerivedRow`]s
//! computed from the cell values. A cell simulates its world once and
//! publishes every number that world yields: value 0 is the cell's own
//! row, the rest are read by derived rows ([`Values::at`]), so several
//! rows about one world never cost a second simulation. [`execute`]
//! evaluates every `(cell, replicate)` pair across a scoped worker pool
//! and merges the results back **in declared order**, so the output is
//! byte-identical regardless of worker count:
//!
//! - work assignment never influences results — each pair's seed is a
//!   pure function of `(base seed, seed key, replicate)` via
//!   [`util::seed::derive`],
//! - replicate 0 runs at the base seed itself (the canonical run), so
//!   `--seeds 1` reproduces the historical single-seed tables exactly,
//! - paired comparisons (e.g. SoftStage vs Xftp on one wardriving
//!   trace) share a [`Cell::seed_key`], guaranteeing both sides of a
//!   ratio simulate the same world at every replicate.
//!
//! Threads are confined to `util::sync` (DESIGN.md §8). Cells fan out
//! through [`util::sync::parallel_map`], whose workers share nothing but a
//! ticket cursor, and a world's catalog is hashed on one
//! `pipelined_map` worker before the world exists: simulation crates
//! stay single-threaded (`clippy::disallowed_methods` rejects
//! `std::thread` in library code), a cell builds and runs its world inside
//! its job and returns numbers only (a world's `Dag`s and `Bytes` are
//! `Rc`, so the compiler keeps them on the thread that made them), and a
//! panicking cell — figure drivers assert on
//! invalid runs — reaches the caller with its own message and aborts
//! the reproduction, exactly like the serial loop.

use util::sync::parallel_map;

use crate::report::{Spread, Table};

/// How a cell turns one seed into the values its world publishes
/// (never empty; value 0 is the cell's printed row).
pub type CellFn = Box<dyn Fn(u64) -> Vec<f64> + Send + Sync>;

/// How a derived row folds one replicate's cell values into one value.
pub type DeriveFn = Box<dyn Fn(&Values<'_>) -> f64 + Send + Sync>;

/// What one evaluation of a cell publishes: a bare `f64` for the common
/// one-number cell, an array when the world yields several.
pub struct Published(Vec<f64>);

impl From<f64> for Published {
    fn from(value: f64) -> Self {
        Published(vec![value])
    }
}

impl<const N: usize> From<[f64; N]> for Published {
    fn from(values: [f64; N]) -> Self {
        const { assert!(N > 0, "a cell publishes at least its own row") };
        Published(values.into())
    }
}

/// One replicate's published values, as derived rows see them: `v[i]` is
/// cell `i`'s primary value (declared cell order), [`Values::at`] reads
/// the others.
pub struct Values<'a> {
    cells: &'a [Vec<f64>],
}

impl Values<'_> {
    /// The `k`-th value cell `cell` published this replicate.
    #[expect(
        clippy::indexing_slicing,
        reason = "like slice indexing: a derived row names cells of its own table, so a bad index is a table-definition bug"
    )]
    pub fn at(&self, cell: usize, k: usize) -> f64 {
        self.cells[cell][k]
    }
}

impl std::ops::Index<usize> for Values<'_> {
    type Output = f64;

    #[expect(
        clippy::indexing_slicing,
        reason = "Index panics out of range by contract; a derived row names cells of its own table"
    )]
    fn index(&self, cell: usize) -> &f64 {
        &self.cells[cell][0]
    }
}

/// One independently evaluable cell of an experiment table.
pub struct Cell {
    /// Identifier, unique within its table, e.g. `chunk-0.25`.
    pub id: String,
    /// Row label in the rendered table.
    pub label: String,
    /// What the paper reports for this cell, if stated.
    pub paper: Option<f64>,
    /// Overrides the seed-derivation key (default `<table>/<cell>`).
    /// Cells that must simulate the *same world* per replicate — the two
    /// sides of a ratio — share a key.
    pub seed_key: Option<String>,
    /// Evaluates the cell at a derived seed.
    pub eval: CellFn,
}

impl Cell {
    /// A cell with the default per-cell seed key.
    pub fn new<V: Into<Published>>(
        id: impl Into<String>,
        label: impl Into<String>,
        paper: Option<f64>,
        eval: impl Fn(u64) -> V + Send + Sync + 'static,
    ) -> Self {
        Cell {
            id: id.into(),
            label: label.into(),
            paper,
            seed_key: None,
            eval: Box::new(move |seed| eval(seed).into().0),
        }
    }

    /// Shares seed derivation with every other cell using `key` (builder
    /// style), pairing their worlds replicate by replicate.
    pub(crate) fn with_seed_key(mut self, key: impl Into<String>) -> Self {
        self.seed_key = Some(key.into());
        self
    }
}

/// A row computed from the (per-replicate) cell values instead of its
/// own simulation — ratios, reductions, totals.
pub struct DerivedRow {
    /// Row label.
    pub label: String,
    /// Paper value, if stated.
    pub paper: Option<f64>,
    /// Folds one replicate's cell values (in declared cell order).
    pub derive: DeriveFn,
}

impl DerivedRow {
    /// A derived row.
    pub fn new(
        label: impl Into<String>,
        paper: Option<f64>,
        derive: impl Fn(&Values<'_>) -> f64 + Send + Sync + 'static,
    ) -> Self {
        DerivedRow {
            label: label.into(),
            paper,
            derive: Box::new(derive),
        }
    }
}

/// A declared reproduction table: independent cells plus derived rows.
pub struct TableSpec {
    /// Table identifier, e.g. `fig6a`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Unit of the value column(s).
    pub unit: String,
    /// The independent cells, in row order.
    pub cells: Vec<Cell>,
    /// Rows appended after the cells, computed from their values.
    pub derived: Vec<DerivedRow>,
}

impl TableSpec {
    /// A spec with no rows yet.
    pub fn new(id: &str, title: &str, unit: &str) -> Self {
        TableSpec {
            id: id.to_owned(),
            title: title.to_owned(),
            unit: unit.to_owned(),
            cells: Vec::new(),
            derived: Vec::new(),
        }
    }

    /// Appends a cell (builder style).
    pub fn cell(mut self, cell: Cell) -> Self {
        self.cells.push(cell);
        self
    }

    /// Appends a derived row (builder style).
    pub fn derived(mut self, row: DerivedRow) -> Self {
        self.derived.push(row);
        self
    }
}

/// Executor configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Worker threads; clamped to at least 1. Never affects results.
    pub jobs: usize,
    /// Replicates per cell; clamped to at least 1. Replicate 0 runs at
    /// `base_seed`, further replicates at derived seeds.
    pub seeds: u32,
    /// The user-facing base seed.
    pub base_seed: u64,
}

impl ExecConfig {
    /// Serial single-seed execution — the historical behavior.
    pub fn serial(base_seed: u64) -> Self {
        ExecConfig {
            jobs: 1,
            seeds: 1,
            base_seed,
        }
    }
}

/// The seed-derivation key for `cell` of table `spec`.
fn seed_key(spec: &TableSpec, cell: &Cell) -> String {
    cell.seed_key
        .clone()
        .unwrap_or_else(|| format!("{}/{}", spec.id, cell.id))
}

/// Runnable `(cell, replicate)` pairs in `specs` at `seeds` replicates —
/// the most workers that can ever be busy at once.
pub(crate) fn runnable_cells(specs: &[TableSpec], seeds: u32) -> usize {
    specs.iter().map(|s| s.cells.len()).sum::<usize>() * seeds.max(1) as usize
}

/// The default worker count for a run: `min(available cores, runnable
/// cells)`, at least 1. Spawning more workers than cores is a measured
/// pessimization (scheduler churn on few-core hosts), and more
/// workers than cells can never help; an explicit `--jobs N` still
/// overrides this.
#[expect(
    clippy::disallowed_methods,
    reason = "the core count sizes the worker pool only; --jobs 1 and --jobs N write identical output"
)]
pub fn default_jobs(specs: &[TableSpec], seeds: u32) -> usize {
    let cores = std::thread::available_parallelism().ok().map(usize::from);
    default_jobs_with(cores, specs, seeds)
}

/// [`default_jobs`] with the core count injected: `None` — the platform
/// cannot report one — degrades to a single worker rather than
/// guessing, then flows through the same clamp as the happy path.
pub(crate) fn default_jobs_with(cores: Option<usize>, specs: &[TableSpec], seeds: u32) -> usize {
    cores.unwrap_or(1).min(runnable_cells(specs, seeds)).max(1)
}

/// Evaluates every `(cell, replicate)` pair of `specs` on a pool of
/// `config.jobs` scoped threads and merges the values into [`Table`]s in
/// declared order. Output is a pure function of `(specs, seeds,
/// base_seed)` — worker count only changes wall-clock.
#[expect(
    clippy::indexing_slicing,
    reason = "work items index the specs they were built from, parallel_map calls back with i < items.len(), and every cell publishes its primary value first"
)]
pub fn execute(specs: &[TableSpec], config: &ExecConfig) -> Vec<Table> {
    let reps = config.seeds.max(1);
    // Flattened work list: (spec, cell, replicate) → result slot.
    let mut items: Vec<(usize, usize, u32)> = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        for ci in 0..spec.cells.len() {
            for r in 0..reps {
                items.push((si, ci, r));
            }
        }
    }
    let eval_item = |&(si, ci, r): &(usize, usize, u32)| -> Vec<f64> {
        let (spec, cell) = (&specs[si], &specs[si].cells[ci]);
        let seed = util::seed::derive(config.base_seed, &seed_key(spec, cell), r);
        (cell.eval)(seed)
    };
    // The shared index-keyed pool: jobs = 1 evaluates inline (one
    // effective worker gains nothing from a pool and measurably loses
    // to it on few-core hosts), and the seed derivation is identical
    // either way, so output is byte-identical across worker counts.
    let mut results = parallel_map(items.len(), config.jobs, |i| eval_item(&items[i])).into_iter();

    // Merge back in declared order — `results` is in work-list order, so
    // each cell's replicates come next. None is missing: a panicking
    // cell unwinds out of the pool above before we get here.
    let mut tables = Vec::with_capacity(specs.len());
    for spec in specs {
        let mut table = Table::new(&spec.id, &spec.title, &spec.unit);
        // Per replicate, what each cell published — the derived rows' input.
        let mut per_rep: Vec<Vec<Vec<f64>>> =
            vec![Vec::with_capacity(spec.cells.len()); reps as usize];
        for (ci, cell) in spec.cells.iter().enumerate() {
            for (rep, published) in per_rep.iter_mut().zip(&mut results) {
                rep.push(published);
            }
            let values: Vec<f64> = per_rep.iter().map(|rep| rep[ci][0]).collect();
            push_summary(&mut table, &cell.label, cell.paper, &values);
        }
        for row in &spec.derived {
            let values: Vec<f64> = per_rep
                .iter()
                .map(|cells| (row.derive)(&Values { cells }))
                .collect();
            push_summary(&mut table, &row.label, row.paper, &values);
        }
        tables.push(table);
    }
    tables
}

/// Pushes `values` as one row: plain when there is a single replicate,
/// mean/min/max otherwise.
fn push_summary(table: &mut Table, label: &str, paper: Option<f64>, values: &[f64]) {
    if let [single] = values {
        table.push(label, paper, *single);
        return;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    table.push_replicated(
        label,
        paper,
        mean,
        Spread {
            min,
            max,
            seeds: values.len() as u32,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use util::json::ToJson;

    /// A cheap deterministic "experiment": a few splitmix rounds mapped
    /// into (0, 1).
    fn synth(tag: u64) -> impl Fn(u64) -> f64 + Send + Sync {
        move |seed| {
            let v = util::seed::splitmix64(seed ^ (tag << 17));
            (v >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn spec() -> TableSpec {
        TableSpec::new("synthetic", "Synthetic grid", "u")
            .cell(Cell::new("a", "cell a", Some(0.5), synth(1)))
            .cell(Cell::new("b", "cell b", None, synth(2)))
            .cell(Cell::new("c", "cell c", None, synth(3)).with_seed_key("pair"))
            .cell(Cell::new("d", "cell d", None, synth(4)).with_seed_key("pair"))
            .derived(DerivedRow::new("c/d ratio", Some(1.0), |v| v[2] / v[3]))
    }

    fn json(tables: &[Table]) -> String {
        tables.to_vec().to_json().to_string_pretty()
    }

    #[test]
    fn output_is_independent_of_worker_count() {
        for seeds in [1, 3] {
            let mk = |jobs| {
                execute(
                    &[spec()],
                    &ExecConfig {
                        jobs,
                        seeds,
                        base_seed: 42,
                    },
                )
            };
            let reference = json(&mk(1));
            for jobs in [2, 4, 16] {
                assert_eq!(
                    json(&mk(jobs)),
                    reference,
                    "jobs={jobs} seeds={seeds} must be byte-identical to jobs=1"
                );
            }
        }
    }

    #[test]
    fn replicate_zero_is_the_canonical_run() {
        let serial = execute(&[spec()], &ExecConfig::serial(7));
        assert_eq!(serial[0].rows[0].measured, synth(1)(7));
        // The replicated mean moves, but the envelope brackets the
        // canonical value.
        let rep = execute(
            &[spec()],
            &ExecConfig {
                jobs: 4,
                seeds: 5,
                base_seed: 7,
            },
        );
        let row = &rep[0].rows[0];
        let s = row.spread.expect("replicated row has a spread");
        assert_eq!(s.seeds, 5);
        assert!(s.min <= synth(1)(7) && synth(1)(7) <= s.max);
        assert!(s.min <= row.measured && row.measured <= s.max);
    }

    #[test]
    fn paired_cells_share_their_world_every_replicate() {
        // Cells c and d share a seed key: at every replicate both see the
        // same seed, so equal eval functions would agree exactly. Here we
        // check via the derived ratio of *identical* synth functions.
        let paired = TableSpec::new("p", "Paired", "u")
            .cell(Cell::new("x", "x", None, synth(9)).with_seed_key("w"))
            .cell(Cell::new("y", "y", None, synth(9)).with_seed_key("w"))
            .derived(DerivedRow::new("x/y", None, |v| v[0] / v[1]));
        let tables = execute(
            &[paired],
            &ExecConfig {
                jobs: 3,
                seeds: 4,
                base_seed: 42,
            },
        );
        let ratio = &tables[0].rows[2];
        assert_eq!(ratio.measured, 1.0, "paired worlds must match");
        let s = ratio.spread.expect("replicated");
        assert_eq!((s.min, s.max), (1.0, 1.0));
    }

    #[test]
    fn derived_rows_fold_per_replicate_not_on_means() {
        // f(v) = v[0]^2 is nonlinear: folding per replicate then averaging
        // differs from folding the mean. Pin the per-replicate semantics.
        let spec = TableSpec::new("n", "Nonlinear", "u")
            .cell(Cell::new("v", "v", None, synth(5)))
            .derived(DerivedRow::new("v squared", None, |v| v[0] * v[0]));
        let tables = execute(
            &[spec],
            &ExecConfig {
                jobs: 2,
                seeds: 3,
                base_seed: 1,
            },
        );
        let v_row = &tables[0].rows[0];
        let sq_row = &tables[0].rows[1];
        assert!(
            (sq_row.measured - v_row.measured * v_row.measured).abs() > 1e-12,
            "per-replicate fold must not collapse to mean-of-means"
        );
    }

    #[test]
    fn secondary_values_fold_like_a_paired_metric_cell() {
        // Before cells could publish several values, a second number of
        // the same world was its own cell on the same seed key. Reading
        // it through `at` must give that cell's row, replicate by
        // replicate: same mean, same min/max.
        let paired = TableSpec::new("t", "T", "u")
            .cell(Cell::new("w", "w", None, synth(1)).with_seed_key("world"))
            .cell(Cell::new("m", "metric", None, synth(2)).with_seed_key("world"));
        let published = TableSpec::new("t", "T", "u")
            .cell(
                Cell::new("w", "w", None, |seed| [synth(1)(seed), synth(2)(seed)])
                    .with_seed_key("world"),
            )
            .derived(DerivedRow::new("metric", None, |v| v.at(0, 1)));
        let config = ExecConfig {
            jobs: 2,
            seeds: 3,
            base_seed: 42,
        };
        let was = execute(&[paired], &config);
        let now = execute(&[published], &config);
        assert!(was[0].rows[1].spread.is_some(), "three replicates");
        assert_eq!(json(&was), json(&now));
    }

    #[test]
    fn each_world_is_evaluated_once_per_replicate() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        // The fleet-smoke shape: a staged and a baseline world, five
        // metric rows off the staged one, a gain row and a constant —
        // nine rows, two simulations per replicate.
        let evals = Arc::new(AtomicUsize::new(0));
        let spec = || {
            let world = |tag: u64| {
                let evals = Arc::clone(&evals);
                Cell::new(format!("w{tag}"), "p50", None, move |seed| {
                    evals.fetch_add(1, Ordering::Relaxed);
                    let p50 = synth(tag)(seed);
                    [p50, 1.0, 2.0, 3.0, 4.0, 5.0]
                })
                .with_seed_key("combo")
            };
            let mut spec = TableSpec::new("f", "Fleet-shaped", "u")
                .cell(world(1))
                .cell(world(2));
            for m in 1..=5 {
                spec = spec.derived(DerivedRow::new("metric", None, move |v| v.at(0, m)));
            }
            spec.derived(DerivedRow::new("gain", None, |v| v[1] / v[0]))
                .derived(DerivedRow::new("total", None, |_| 2.0))
        };
        for jobs in [1, 4] {
            evals.store(0, Ordering::Relaxed);
            let config = ExecConfig {
                jobs,
                seeds: 3,
                base_seed: 42,
            };
            assert_eq!(execute(&[spec()], &config)[0].rows.len(), 9);
            assert_eq!(evals.load(Ordering::Relaxed), 2 * 3, "jobs={jobs}");
        }
        // One simulation per cell, so the cell counts are the world counts.
        assert_eq!(crate::overload::spec().cells.len(), 3);
        assert_eq!(crate::fleet::spec().cells.len(), 8);
    }

    #[test]
    fn serial_path_is_byte_identical_to_pooled() {
        // Regression for the few-core pessimization fix: jobs = 1 now
        // takes an inline path with no thread pool at all; its output
        // must stay byte-identical to any pooled run.
        let config = |jobs| ExecConfig {
            jobs,
            seeds: 3,
            base_seed: 42,
        };
        let serial = json(&execute(&[spec()], &config(1)));
        let pooled = json(&execute(&[spec()], &config(4)));
        assert_eq!(serial, pooled, "serial inline path must match the pool");
    }

    #[test]
    fn default_jobs_clamps_to_runnable_cells() {
        // 4 cells × 1 seed = 4 runnable items; never more workers than
        // that, regardless of core count — and never fewer than 1.
        let one = spec();
        assert_eq!(runnable_cells(std::slice::from_ref(&one), 1), 4);
        assert_eq!(runnable_cells(std::slice::from_ref(&one), 3), 12);
        assert!(default_jobs(std::slice::from_ref(&one), 1) <= 4);
        assert!(default_jobs(&[], 1) >= 1, "empty spec list still gets 1");
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert!(default_jobs(std::slice::from_ref(&one), 64) <= cores);
    }

    #[test]
    fn default_jobs_degrades_to_one_worker_when_cores_unknown() {
        // Regression: the `available_parallelism` error arm must clamp
        // to 1 through the same min(cores, runnable cells) path as the
        // happy path — not panic, not zero.
        let one = spec();
        assert_eq!(default_jobs_with(None, std::slice::from_ref(&one), 3), 1);
        assert_eq!(default_jobs_with(None, &[], 1), 1);
        // And the injected happy path still clamps both ways.
        assert_eq!(
            default_jobs_with(Some(64), std::slice::from_ref(&one), 1),
            4
        );
        assert_eq!(default_jobs_with(Some(2), std::slice::from_ref(&one), 3), 2);
    }

    #[test]
    fn empty_specs_yield_empty_tables() {
        let tables = execute(
            &[TableSpec::new("e", "Empty", "u")],
            &ExecConfig::serial(42),
        );
        assert_eq!(tables.len(), 1);
        assert!(tables[0].rows.is_empty());
    }
}
