//! Shared simulation runner for the experiment binaries.
//!
//! Every cell of the paper's evaluation matrix (workload × configuration ×
//! threat model) is an independent simulation, so the sweep fans out over a
//! bounded worker pool ([`run_indexed`]) sized by
//! [`std::thread::available_parallelism`] and overridable with the
//! `--jobs N` flag. Results are written into pre-indexed slots, so the
//! assembled [`SuiteMatrix`] — and every CSV and table derived from it — is
//! byte-identical to a sequential run regardless of scheduling.
//!
//! [`paper_sweep`] is the one sweep behind every paper artifact: the
//! Table-2 matrix per threat model plus the few Futuristic cells the
//! ablations add, each distinct (workload, config) cell simulated once.

use spt_core::{Config, ThreatModel};
use spt_mem::MemSystem;
use spt_ooo::{CoreConfig, CycleStack, Machine, MachineStats, RunLimits, SimError};
use spt_workloads::{Scale, Workload};
use std::fmt;

// The pool lives in `spt-util` (shared with `spt-fuzz`); re-exported here
// so existing `spt_bench::runner::run_indexed` callers keep working.
pub use spt_util::{default_jobs, run_indexed};

/// Default retired-instruction budget per (workload, config) run.
///
/// Every configuration retires exactly this many instructions of the same
/// program, so cycle counts are directly comparable (the gem5 SimPoint
/// methodology's fixed-work principle).
pub const DEFAULT_BUDGET: u64 = 30_000;

/// One completed run.
#[derive(Clone, Debug)]
pub struct RunRow {
    /// Workload name.
    pub workload: String,
    /// Configuration display name.
    pub config: String,
    /// Attack model.
    pub threat: ThreatModel,
    /// Untaint broadcast width of the configuration (the display name does
    /// not carry it).
    pub broadcast_width: usize,
    /// Cycles taken to retire the budget.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Full machine statistics.
    pub stats: MachineStats,
    /// Head-of-ROB cycle stack; its total is `cycles`.
    pub cycle_stack: CycleStack,
}

/// A simulation failure carrying the identity of the sweep cell that
/// wedged, so a single bad (workload, config, threat) pair produces one
/// clear diagnostic instead of tearing down a long sweep with a panic.
#[derive(Clone, Debug)]
pub struct SweepError {
    /// Workload name of the failed cell.
    pub workload: String,
    /// Configuration display name of the failed cell.
    pub config: String,
    /// Attack model of the failed cell.
    pub threat: ThreatModel,
    /// The underlying simulator error.
    pub source: SimError,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} under {} [{}]: {}", self.workload, self.config, self.threat, self.source)
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Builds the machine for one (workload, config) cell: default core,
/// default memory system with the workload's data image applied.
///
/// Callers that need observability attach a trace sink or enable
/// telemetry on the returned machine before handing it to
/// [`run_prepared`]; [`run_workload`] is the plain compose-and-run path.
pub fn prepare_machine(w: &Workload, cfg: Config) -> Machine {
    let mut mem = MemSystem::default();
    w.apply_memory(mem.store());
    Machine::with_memory(w.program.clone(), CoreConfig::default(), cfg, mem)
}

/// Runs a machine built by [`prepare_machine`] for `budget` retired
/// instructions and returns the row.
///
/// # Errors
///
/// Returns a [`SweepError`] identifying the (workload, config, threat)
/// cell if the simulator deadlocks (a bug, not a measurement).
pub fn run_prepared(
    m: &mut Machine,
    w: &Workload,
    cfg: Config,
    budget: u64,
) -> Result<RunRow, SweepError> {
    let out = m.run(RunLimits::retired(budget)).map_err(|source| SweepError {
        workload: w.name.to_string(),
        config: cfg.name().to_string(),
        threat: cfg.threat,
        source,
    })?;
    Ok(RunRow {
        workload: w.name.to_string(),
        config: cfg.name().to_string(),
        threat: cfg.threat,
        broadcast_width: cfg.broadcast_width,
        cycles: out.cycles,
        retired: out.retired,
        stats: m.stats(),
        cycle_stack: m.cycle_stack(),
    })
}

/// Runs one workload under one configuration for `budget` retired
/// instructions and returns the row.
///
/// # Errors
///
/// Returns a [`SweepError`] identifying the (workload, config, threat)
/// cell if the simulator deadlocks (a bug, not a measurement).
pub fn run_workload(w: &Workload, cfg: Config, budget: u64) -> Result<RunRow, SweepError> {
    let mut m = prepare_machine(w, cfg);
    run_prepared(&mut m, w, cfg, budget)
}

/// Knobs shared by every sweep entry point.
#[derive(Clone, Copy, Debug)]
pub struct SweepOptions {
    /// Retired-instruction budget per run.
    pub budget: u64,
    /// Log each (workload, config) pair as it is dispatched.
    pub verbose: bool,
    /// Worker threads (`--jobs N`); `1` means fully sequential.
    pub jobs: usize,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions { budget: DEFAULT_BUDGET, verbose: false, jobs: default_jobs() }
    }
}

impl SweepOptions {
    /// Options with the given budget and default parallelism.
    pub fn new(budget: u64) -> SweepOptions {
        SweepOptions { budget, ..SweepOptions::default() }
    }

    /// Overrides the worker count.
    pub fn jobs(mut self, jobs: usize) -> SweepOptions {
        self.jobs = jobs.max(1);
        self
    }

    /// Enables or disables per-run dispatch logging.
    pub fn verbose(mut self, verbose: bool) -> SweepOptions {
        self.verbose = verbose;
        self
    }
}

/// Results of a whole suite × configuration sweep for one threat model.
#[derive(Clone, Debug)]
pub struct SuiteMatrix {
    /// Attack model.
    pub threat: ThreatModel,
    /// Configuration names in Table-2 order.
    pub configs: Vec<String>,
    /// Workload names in Figure-7 order.
    pub workloads: Vec<String>,
    /// `rows[w][c]` = run of workload `w` under config `c`.
    pub rows: Vec<Vec<RunRow>>,
    /// Column index of [`BASELINE_CONFIG`], resolved once at construction
    /// so per-cell normalization is O(1) instead of a linear name scan.
    baseline: usize,
}

/// Display name of the configuration every normalization divides by
/// (paper Table 2's insecure baseline).
pub const BASELINE_CONFIG: &str = "UnsafeBaseline";

impl SuiteMatrix {
    /// Assembles a matrix, resolving the [`BASELINE_CONFIG`] column by
    /// name once up front.
    ///
    /// # Panics
    ///
    /// Panics if `configs` has no `UnsafeBaseline` entry — normalized
    /// quantities are meaningless without it, and a silent positional
    /// assumption (column 0) could divide by the wrong configuration.
    pub fn new(
        threat: ThreatModel,
        configs: Vec<String>,
        workloads: Vec<String>,
        rows: Vec<Vec<RunRow>>,
    ) -> SuiteMatrix {
        let baseline = configs.iter().position(|c| c == BASELINE_CONFIG).unwrap_or_else(|| {
            panic!(
                "matrix has no {BASELINE_CONFIG} column to normalize against (configs: {configs:?})"
            )
        });
        SuiteMatrix { threat, configs, workloads, rows, baseline }
    }

    /// Column index of the [`BASELINE_CONFIG`] every normalization divides
    /// by (validated by name at construction).
    pub fn baseline_index(&self) -> usize {
        self.baseline
    }

    /// Cycles normalized to the [`BASELINE_CONFIG`] column.
    pub fn normalized(&self, w: usize, c: usize) -> f64 {
        let base = self.rows[w][self.baseline].cycles as f64;
        self.rows[w][c].cycles as f64 / base
    }

    /// Class-by-class cycle-stack difference against the
    /// [`BASELINE_CONFIG`] column: the Figure-7 slowdown of cell `(w, c)`
    /// split by head-of-ROB class, summing exactly to
    /// `cycles - base_cycles`.
    pub fn stack_delta(&self, w: usize, c: usize) -> [(&'static str, i64); 5] {
        self.rows[w][c].cycle_stack.delta(&self.rows[w][self.baseline].cycle_stack)
    }

    /// Arithmetic mean of normalized execution time for config `c` over a
    /// workload-index subset.
    ///
    /// # Panics
    ///
    /// Panics on an empty subset: a mean over nothing is a report bug, and
    /// returning `NaN` would flow unannotated into tables and CSVs.
    pub fn mean_over(&self, c: usize, subset: &[usize]) -> f64 {
        assert!(!subset.is_empty(), "mean_over: empty workload subset for config {c}");
        subset.iter().map(|&w| self.normalized(w, c)).sum::<f64>() / subset.len() as f64
    }

    /// Geometric mean of normalized execution time for config `c`.
    ///
    /// # Panics
    ///
    /// Panics on an empty subset, as [`Self::mean_over`] does.
    pub fn geomean_over(&self, c: usize, subset: &[usize]) -> f64 {
        assert!(!subset.is_empty(), "geomean_over: empty workload subset for config {c}");
        let log_sum: f64 = subset.iter().map(|&w| self.normalized(w, c).ln()).sum();
        (log_sum / subset.len() as f64).exp()
    }

    /// Index of a configuration by display name.
    pub fn config_index(&self, name: &str) -> Option<usize> {
        self.configs.iter().position(|c| c == name)
    }

    /// Indices of workloads belonging to the SPEC suites (not constant-time).
    pub fn spec_indices(&self, workloads: &[Workload]) -> Vec<usize> {
        (0..self.workloads.len())
            .filter(|&i| workloads[i].category != spt_workloads::Category::ConstantTime)
            .collect()
    }

    /// Indices of constant-time workloads.
    pub fn ct_indices(&self, workloads: &[Workload]) -> Vec<usize> {
        (0..self.workloads.len())
            .filter(|&i| workloads[i].category == spt_workloads::Category::ConstantTime)
            .collect()
    }
}

/// Runs `(workload index, config)` cells over [`SweepOptions::jobs`]
/// workers and returns the rows in cell order.
///
/// # Errors
///
/// Returns the first failing cell in cell order if any simulation
/// deadlocks.
fn run_cells(
    workloads: &[Workload],
    cells: &[(usize, Config)],
    opts: SweepOptions,
) -> Result<Vec<RunRow>, SweepError> {
    run_indexed(cells.len(), opts.jobs, |i| {
        let (w, cfg) = cells[i];
        if opts.verbose {
            eprintln!("  running {} under {cfg} ...", workloads[w].name);
        }
        run_workload(&workloads[w], cfg, opts.budget)
    })
    .into_iter()
    .collect()
}

/// The Table-2 cells of one threat model, workloads outer, configs inner.
fn matrix_cells(threat: ThreatModel, workloads: usize) -> Vec<(usize, Config)> {
    let configs = Config::table2(threat);
    (0..workloads).flat_map(|w| configs.iter().map(move |&c| (w, c))).collect()
}

/// Assembles the rows of [`matrix_cells`] into a [`SuiteMatrix`],
/// consuming exactly one row per cell from `rows`.
fn matrix_from_rows(
    threat: ThreatModel,
    workloads: &[Workload],
    rows: &mut impl Iterator<Item = RunRow>,
) -> SuiteMatrix {
    let configs: Vec<String> =
        Config::table2(threat).iter().map(|c| c.name().to_string()).collect();
    let rows = workloads.iter().map(|_| rows.by_ref().take(configs.len()).collect()).collect();
    SuiteMatrix::new(threat, configs, workloads.iter().map(|w| w.name.to_string()).collect(), rows)
}

/// Runs the full Figure-7 sweep: every Table-2 configuration on every
/// workload of the suite, for one threat model, fanned out over
/// [`SweepOptions::jobs`] workers.
///
/// Cell order in the result is identical to the sequential nested loop
/// (workloads outer, configs inner), whatever the parallelism.
///
/// # Errors
///
/// Returns the first failing cell in deterministic (workload, config)
/// order if any simulation deadlocks.
pub fn suite_matrix(
    threat: ThreatModel,
    workloads: &[Workload],
    opts: SweepOptions,
) -> Result<SuiteMatrix, SweepError> {
    let rows = run_cells(workloads, &matrix_cells(threat, workloads.len()), opts)?;
    Ok(matrix_from_rows(threat, workloads, &mut rows.into_iter()))
}

/// Workloads of the §9.4 broadcast-width ablation.
pub const WIDTH_WORKLOADS: [&str; 6] =
    ["perlbench", "mcf", "omnetpp", "namd", "povray", "chacha20"];

/// Broadcast widths the §9.4 ablation adds. The Table-1 width of 3 is the
/// matrix's own `SPT{Bwd,ShadowL1}` column, so it is not simulated again.
pub const ABLATION_WIDTHS: [usize; 5] = [1, 2, 4, 8, 16];

/// Every simulation the paper's artifacts read, each run once.
#[derive(Clone, Debug)]
pub struct PaperSweep {
    /// One Table-2 matrix per selected threat model, in selection order.
    pub matrices: Vec<SuiteMatrix>,
    /// `SPT{Bwd,ShadowL1}+SDO` (Futuristic) per workload, in suite order;
    /// empty when Futuristic is not selected.
    pub sdo: Vec<RunRow>,
    /// Per width-ablation workload: its suite index and its
    /// `SPT{Bwd,ShadowL1}` (Futuristic) rows at [`ABLATION_WIDTHS`];
    /// empty when Futuristic is not selected.
    pub widths: Vec<(usize, Vec<RunRow>)>,
}

impl PaperSweep {
    /// The Futuristic matrix, which the ablations and Figure 9 read.
    pub fn futuristic(&self) -> Option<&SuiteMatrix> {
        self.matrices.iter().find(|m| m.threat == ThreatModel::Futuristic)
    }
}

/// Suite indices of the [`WIDTH_WORKLOADS`] present, in suite order.
fn width_workloads(workloads: &[Workload]) -> Vec<usize> {
    (0..workloads.len()).filter(|&w| WIDTH_WORKLOADS.contains(&workloads[w].name)).collect()
}

/// The cells [`paper_sweep`] simulates, in dispatch order: the Table-2
/// matrix of every model in `models`, then, if Futuristic is among them,
/// `Config::spt_sdo` on every workload and [`ABLATION_WIDTHS`] on the
/// width-ablation workloads. No (workload, config) pair appears twice.
pub fn paper_cells(models: &[ThreatModel], workloads: &[Workload]) -> Vec<(usize, Config)> {
    let mut cells: Vec<_> = models.iter().flat_map(|&t| matrix_cells(t, workloads.len())).collect();
    if models.contains(&ThreatModel::Futuristic) {
        let t = ThreatModel::Futuristic;
        cells.extend((0..workloads.len()).map(|w| (w, Config::spt_sdo(t))));
        for w in width_workloads(workloads) {
            cells.extend(
                ABLATION_WIDTHS
                    .iter()
                    .map(|&broadcast_width| (w, Config { broadcast_width, ..Config::spt_full(t) })),
            );
        }
    }
    cells
}

/// Runs every [`paper_cells`] cell through the pool once and splits the
/// rows into the Table-2 matrices and the ablation rows.
///
/// # Errors
///
/// Returns the first failing cell in dispatch order if any simulation
/// deadlocks.
pub fn paper_sweep(
    models: &[ThreatModel],
    workloads: &[Workload],
    opts: SweepOptions,
) -> Result<PaperSweep, SweepError> {
    let mut rows = run_cells(workloads, &paper_cells(models, workloads), opts)?.into_iter();
    let matrices = models.iter().map(|&t| matrix_from_rows(t, workloads, rows.by_ref())).collect();
    // What is left are the Futuristic ablation rows, in `paper_cells` order.
    let sdo = rows.by_ref().take(workloads.len()).collect();
    let ablated =
        if models.contains(&ThreatModel::Futuristic) { width_workloads(workloads) } else { vec![] };
    let widths = ablated
        .into_iter()
        .map(|w| (w, rows.by_ref().take(ABLATION_WIDTHS.len()).collect()))
        .collect();
    Ok(PaperSweep { matrices, sdo, widths })
}

/// Builds the standard bench-scale workload suite.
pub fn bench_suite() -> Vec<Workload> {
    spt_workloads::full_suite(Scale::Bench)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_one_workload_quickly() {
        let w = &spt_workloads::ct_suite(Scale::Bench)[1]; // chacha20
        let row = run_workload(w, Config::unsafe_baseline(ThreatModel::Spectre), 2_000)
            .expect("chacha20 runs");
        assert!(row.retired >= 2_000);
        assert!(row.cycles > 0);
        assert!(row.stats.ipc() > 0.1, "chacha20 should have reasonable IPC");
    }

    #[test]
    fn matrix_normalization_is_one_for_baseline() {
        let suite = spt_workloads::ct_suite(Scale::Bench);
        let m = suite_matrix(ThreatModel::Spectre, &suite[..1], SweepOptions::new(1_000))
            .expect("sweep completes");
        let base = m.baseline_index();
        assert!((m.normalized(0, base) - 1.0).abs() < 1e-12);
        assert_eq!(m.configs.len(), 8);
    }

    #[test]
    fn pool_is_reexported_from_util() {
        // The pool itself is unit-tested in `spt-util`; this guards the
        // re-export path the binaries and older callers rely on.
        assert_eq!(run_indexed(4, 2, |i| i + 1), vec![1, 2, 3, 4]);
        assert!(default_jobs() >= 1);
    }

    #[test]
    #[should_panic(expected = "no UnsafeBaseline column")]
    fn baseline_is_validated_by_name_at_construction() {
        let _ = SuiteMatrix::new(ThreatModel::Spectre, vec!["Secure".into()], vec![], vec![]);
    }

    #[test]
    #[should_panic(expected = "empty workload subset")]
    fn empty_subset_is_rejected() {
        let m = SuiteMatrix::new(
            ThreatModel::Spectre,
            vec![BASELINE_CONFIG.to_string()],
            vec![],
            vec![],
        );
        m.mean_over(0, &[]);
    }
}
