//! Multi-process sweep fan-out: the spool protocol, crash-safe workers,
//! and the deterministic merge.
//!
//! The paper's §IV decomposition argument is that a sweep is lossless to
//! partition: every `(scenario, policy)` cell is a pure function of the
//! catalog, so *where* it runs cannot change *what* it computes. This
//! module takes that from threads (see [`crate::sweep`]) to processes:
//!
//! - [`orchestrate`] splits a catalog into one self-describing **unit**
//!   spec file per scenario under `spool/units/`, spawns N `rideshare
//!   worker` children, and merges their results in catalog order — the
//!   merged report is **byte-identical** to a single-process
//!   [`run_sweep`] of the same catalog (`SweepReport::to_json(false)`).
//! - [`run_worker`] is the child side: it claims units via atomic
//!   `rename` (the filesystem is the lock), runs them through the same
//!   [`run_sweep`] core, and publishes canonical `rideshare-sweep/1`
//!   results with a tmp-write + rename so readers never see a torn file.
//!
//! Crash safety is structural, not transactional: a unit lives in
//! exactly one of `units/` (pending), `claimed/w<id>/` (running),
//! `results/` (done), or `poison/` (failed `max_attempts` times). A
//! worker that dies mid-unit leaves its claim behind; the parent requeues
//! it with an incremented attempt counter, and `--resume` applies the
//! same recovery to a whole interrupted run without recomputing finished
//! units. Results are idempotent — re-running a unit rewrites the same
//! bytes — so every recovery path is safe to race.
//!
//! Spool files are single `format!` templates in a spaced layout of their
//! own (a spool written by an older binary must stay resumable); they are
//! read back through `rideshare_types::json`, which also escapes their
//! free-text strings.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rideshare_types::json::{self, escape, JsonValue};
use rideshare_types::{ConfigError, OrchestrateError};

use crate::scenario::Scenario;
use crate::sweep::{run_sweep, PolicySpec, SweepCell, SweepOptions, SweepReport};

const SPOOL_SCHEMA: &str = "rideshare-sweep-spool/1";
const UNIT_SCHEMA: &str = "rideshare-sweep-unit/1";

/// Options for [`orchestrate`].
#[derive(Clone, Debug)]
pub struct OrchestrateOptions {
    /// Number of worker child processes to keep alive while units remain.
    pub workers: usize,
    /// Command line prefix that launches one worker (e.g. `[rideshare,
    /// worker]`); the orchestrator appends `--spool`, `--id`, and
    /// `--threads`.
    pub worker_cmd: Vec<String>,
    /// Extra arguments appended to every worker invocation (used by the
    /// CI fault-injection smoke).
    pub worker_extra_args: Vec<String>,
    /// Thread budget handed to each worker's in-process sweep.
    pub threads_per_worker: usize,
    /// Compute the `Z_f*` ratio denominator per scenario.
    pub compute_bound: bool,
    /// Continue a partial spool instead of refusing to reuse it.
    pub resume: bool,
    /// How long a claimed unit may run before the parent assumes the
    /// worker is stuck, kills it, and requeues the unit.
    pub unit_timeout: Duration,
    /// Attempts per unit before it is poisoned (first run included).
    pub max_attempts: usize,
    /// Parent monitor / worker idle poll cadence.
    pub poll_interval: Duration,
}

impl Default for OrchestrateOptions {
    fn default() -> Self {
        Self {
            workers: 1,
            worker_cmd: Vec::new(),
            worker_extra_args: Vec::new(),
            threads_per_worker: 1,
            compute_bound: true,
            resume: false,
            unit_timeout: Duration::from_secs(300),
            max_attempts: 3,
            poll_interval: Duration::from_millis(25),
        }
    }
}

/// What [`orchestrate`] did, beyond the merged report.
#[derive(Clone, Debug)]
pub struct OrchestrateOutcome {
    /// The merged sweep, cell-for-cell equal to an in-process
    /// [`run_sweep`] of the same catalog.
    pub report: SweepReport,
    /// Units executed or recovered from a previous run.
    pub units: usize,
    /// Units found already finished in the spool (only under `--resume`).
    pub resumed: usize,
    /// Times a unit was requeued after a worker death or timeout.
    pub requeues: usize,
    /// Worker processes spawned beyond the initial pool.
    pub respawns: usize,
}

/// Options for [`run_worker`].
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// The spool directory shared with the orchestrator.
    pub spool: PathBuf,
    /// Claim-directory suffix; must be unique among live workers. The
    /// orchestrator passes its spawn sequence number.
    pub id: String,
    /// Thread budget for the in-process sweep of each claimed unit.
    pub threads: usize,
    /// Idle poll cadence while waiting for requeued units.
    pub poll_interval: Duration,
    /// Fault injection: if this marker file does not exist yet, create it
    /// and report [`WorkerOutcome::CrashRequested`] right after the next
    /// claim, leaving the claim orphaned. The marker is created with
    /// `create_new`, so exactly one worker per marker crashes.
    pub crash_once: Option<PathBuf>,
    /// Fault injection: always crash right after claiming this scenario —
    /// the deterministic way to exhaust a unit's retry budget.
    pub crash_on_unit: Option<String>,
}

/// How a worker's run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkerOutcome {
    /// Every catalog unit is accounted for in `results/` or `poison/`.
    Drained {
        /// Units this worker executed itself.
        units_done: usize,
    },
    /// A fault-injection flag asked this worker to die mid-unit; the
    /// claim was deliberately left behind for the parent to recover.
    CrashRequested,
}

// ---------------------------------------------------------------------------
// Spool layout
// ---------------------------------------------------------------------------

/// The spool directory layout. A unit spec file moves `units/` →
/// `claimed/w<id>/` → deleted, while its result appears in `results/`;
/// units that exhaust their retry budget land in `poison/` instead.
#[derive(Clone, Debug)]
struct Spool {
    root: PathBuf,
}

impl Spool {
    fn new(root: &Path) -> Self {
        Self {
            root: root.to_path_buf(),
        }
    }
    fn catalog(&self) -> PathBuf {
        self.root.join("catalog.json")
    }
    fn units(&self) -> PathBuf {
        self.root.join("units")
    }
    fn claimed(&self) -> PathBuf {
        self.root.join("claimed")
    }
    fn results(&self) -> PathBuf {
        self.root.join("results")
    }
    fn poison(&self) -> PathBuf {
        self.root.join("poison")
    }
}

fn io_err(op: &str, path: &Path, e: &io::Error) -> OrchestrateError {
    OrchestrateError::Io {
        op: op.to_string(),
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// The tmp file [`write_atomic`] stages `path` in: same directory, named
/// `.{name}.{tmp_tag}.tmp`. It must not end in `.json`, or a worker
/// listing `units/` could claim a requeue before the rename commits it.
fn tmp_path(path: &Path, tmp_tag: &str) -> PathBuf {
    let dir = path.parent().unwrap_or(Path::new("."));
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("unit");
    dir.join(format!(".{name}.{tmp_tag}.tmp"))
}

/// Writes `text` to `path` atomically: tmp file in the same directory,
/// then rename. Readers either see the whole file or no file.
fn write_atomic(path: &Path, text: &str, tmp_tag: &str) -> Result<(), OrchestrateError> {
    let tmp = tmp_path(path, tmp_tag);
    fs::write(&tmp, text).map_err(|e| io_err("write tmp file", &tmp, &e))?;
    fs::rename(&tmp, path).map_err(|e| io_err("commit tmp file", path, &e))
}

// ---------------------------------------------------------------------------
// Unit specs and the spool manifest
// ---------------------------------------------------------------------------

/// The array of strings under `key`.
fn str_list(v: &JsonValue, key: &str) -> Result<Vec<String>, String> {
    v.arr_field(key)?
        .iter()
        .map(|s| s.as_str().map(str::to_string))
        .collect::<Option<_>>()
        .ok_or_else(|| format!("non-string entry in {key:?}"))
}

/// One shard execution unit: a scenario and the policies to run on it.
/// Self-describing — a worker needs nothing but this file and the
/// scenario catalog compiled into the binary.
#[derive(Clone, PartialEq, Eq, Debug)]
struct UnitSpec {
    /// File stem, e.g. `0003-porto-day`; the index prefix pins catalog
    /// order and keeps duplicate scenario names distinct.
    unit: String,
    scenario: String,
    policies: Vec<String>,
    bound: bool,
    attempt: usize,
}

impl UnitSpec {
    fn file_name(&self) -> String {
        format!("{}.json", self.unit)
    }

    fn to_json(&self) -> String {
        let policies: Vec<String> = self.policies.iter().map(|p| escape(p)).collect();
        format!(
            "{{\"schema\": {}, \"unit\": {}, \"scenario\": {}, \"policies\": [{}], \
             \"bound\": {}, \"attempt\": {}}}\n",
            escape(UNIT_SCHEMA),
            escape(&self.unit),
            escape(&self.scenario),
            policies.join(", "),
            self.bound,
            self.attempt,
        )
    }

    fn parse(text: &str, path: &Path) -> Result<UnitSpec, OrchestrateError> {
        let read = || -> Result<UnitSpec, String> {
            let v = json::parse(text)?;
            v.expect_schema(UNIT_SCHEMA)?;
            Ok(UnitSpec {
                unit: v.str_field("unit")?.to_string(),
                scenario: v.str_field("scenario")?.to_string(),
                policies: str_list(&v, "policies")?,
                bound: v.bool_field("bound")?,
                attempt: v.num_field("attempt")?,
            })
        };
        read().map_err(|detail| OrchestrateError::CorruptUnit {
            path: path.display().to_string(),
            detail,
        })
    }
}

/// The spool manifest (`catalog.json`): what the run is sweeping. Written
/// last during init, so a spool without one is an uncommitted leftover.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Manifest {
    scenarios: Vec<String>,
    policies: Vec<String>,
    bound: bool,
    /// Unit file stems, catalog order — the merge order.
    units: Vec<String>,
}

impl Manifest {
    fn to_json(&self) -> String {
        let list = |items: &[String]| {
            items
                .iter()
                .map(|s| escape(s))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\n  \"schema\": {},\n  \"bound\": {},\n  \"scenarios\": [{}],\n  \
             \"policies\": [{}],\n  \"units\": [{}]\n}}\n",
            escape(SPOOL_SCHEMA),
            self.bound,
            list(&self.scenarios),
            list(&self.policies),
            list(&self.units),
        )
    }

    fn parse(text: &str, path: &Path) -> Result<Manifest, OrchestrateError> {
        let read = || -> Result<Manifest, String> {
            let v = json::parse(text)?;
            v.expect_schema(SPOOL_SCHEMA)?;
            Ok(Manifest {
                scenarios: str_list(&v, "scenarios")?,
                policies: str_list(&v, "policies")?,
                bound: v.bool_field("bound")?,
                units: str_list(&v, "units")?,
            })
        };
        read().map_err(|detail| OrchestrateError::CorruptUnit {
            path: path.display().to_string(),
            detail,
        })
    }

    fn load(spool: &Spool) -> Result<Manifest, OrchestrateError> {
        let path = spool.catalog();
        let text =
            fs::read_to_string(&path).map_err(|e| io_err("read spool catalog", &path, &e))?;
        Manifest::parse(&text, &path)
    }
}

// ---------------------------------------------------------------------------
// Spool init / resume / recovery
// ---------------------------------------------------------------------------

/// Sorted entries of a directory; missing directory reads empty.
fn sorted_entries(dir: &Path) -> Result<Vec<PathBuf>, OrchestrateError> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err("list spool dir", dir, &e)),
    };
    let paths = entries.map(|entry| entry.map(|e| e.path()));
    let mut out: Vec<PathBuf> = paths
        .collect::<io::Result<_>>()
        .map_err(|e| io_err("list spool dir", dir, &e))?;
    out.sort();
    Ok(out)
}

/// Sorted `.json` entries of a directory; missing directory reads empty.
fn sorted_json_files(dir: &Path) -> Result<Vec<PathBuf>, OrchestrateError> {
    let mut out = sorted_entries(dir)?;
    out.retain(|path| path.extension().is_some_and(|x| x == "json"));
    Ok(out)
}

/// Every per-worker claim file currently in the spool, sorted (paths
/// compare by component, so sorted directories of sorted files are).
fn claimed_files(spool: &Spool) -> Result<Vec<PathBuf>, OrchestrateError> {
    let mut out = Vec::new();
    for dir in sorted_entries(&spool.claimed())? {
        if dir.is_dir() {
            out.extend(sorted_json_files(&dir)?);
        }
    }
    Ok(out)
}

/// Moves an orphaned claim (or poison file, on resume) back into play:
/// requeued into `units/` with the attempt counter bumped to `attempt`,
/// or poisoned when the retry budget is spent. A claim that vanished
/// (its worker finished after all) is skipped. Returns whether the unit
/// went back to `units/`.
fn recover_unit(
    spool: &Spool,
    claim: &Path,
    max_attempts: usize,
    forced_attempt: Option<usize>,
) -> Result<bool, OrchestrateError> {
    let text = match fs::read_to_string(claim) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(io_err("read claim", claim, &e)),
    };
    let spec = match UnitSpec::parse(&text, claim) {
        Ok(spec) => spec,
        Err(_) => {
            // An unparseable unit can never succeed: poison it directly,
            // keeping the raw bytes for post-mortems.
            let name = claim
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("corrupt.json");
            let dest = spool.poison().join(name);
            fs::rename(claim, &dest).map_err(|e| io_err("poison corrupt unit", &dest, &e))?;
            return Ok(false);
        }
    };
    let attempt = forced_attempt.unwrap_or(spec.attempt + 1);
    if attempt > max_attempts {
        let dest = spool.poison().join(spec.file_name());
        write_atomic(&dest, &spec.to_json(), "poison")?;
        fs::remove_file(claim).ok();
        return Ok(false);
    }
    let requeued = UnitSpec { attempt, ..spec };
    let dest = spool.units().join(requeued.file_name());
    write_atomic(&dest, &requeued.to_json(), "requeue")?;
    fs::remove_file(claim).ok();
    Ok(true)
}

/// Creates a fresh spool or, under `resume`, adopts a partial one:
/// finished results stay, orphaned claims requeue with a bumped attempt,
/// poisoned units get a fresh budget.
fn init_spool(
    spool: &Spool,
    scenarios: &[Scenario],
    policies: &[PolicySpec],
    opts: &OrchestrateOptions,
) -> Result<Manifest, OrchestrateError> {
    let scenario_names: Vec<String> = scenarios.iter().map(|s| s.name.to_string()).collect();
    let policy_labels: Vec<String> = policies.iter().map(PolicySpec::label).collect();
    let catalog_exists = spool.catalog().exists();

    if catalog_exists && !opts.resume {
        return Err(OrchestrateError::SpoolExists {
            path: spool.root.display().to_string(),
        });
    }

    if catalog_exists {
        let manifest = Manifest::load(spool)?;
        if manifest.scenarios != scenario_names
            || manifest.policies != policy_labels
            || manifest.bound != opts.compute_bound
        {
            return Err(OrchestrateError::ManifestMismatch {
                detail: format!(
                    "spool swept {:?} × {:?} (bound: {}), invocation asks {:?} × {:?} (bound: {})",
                    manifest.scenarios,
                    manifest.policies,
                    manifest.bound,
                    scenario_names,
                    policy_labels,
                    opts.compute_bound,
                ),
            });
        }
        // Orphaned claims lost a worker mid-run: bump their attempt.
        for claim in claimed_files(spool)? {
            recover_unit(spool, &claim, opts.max_attempts, None)?;
        }
        // Poisoned units get a fresh budget — resuming is an explicit
        // request to try again.
        for poisoned in sorted_json_files(&spool.poison())? {
            recover_unit(spool, &poisoned, opts.max_attempts, Some(1))?;
        }
        return Ok(manifest);
    }

    // Fresh init. A spool without a catalog is an uncommitted leftover;
    // clear its state dirs so stale files cannot leak into this run.
    for dir in [
        spool.units(),
        spool.claimed(),
        spool.results(),
        spool.poison(),
    ] {
        if dir.exists() {
            fs::remove_dir_all(&dir).map_err(|e| io_err("clear stale spool dir", &dir, &e))?;
        }
        fs::create_dir_all(&dir).map_err(|e| io_err("create spool dir", &dir, &e))?;
    }
    let mut units = Vec::with_capacity(scenarios.len());
    for (i, scenario) in scenarios.iter().enumerate() {
        let spec = UnitSpec {
            unit: format!("{i:04}-{}", scenario.name),
            scenario: scenario.name.to_string(),
            policies: policy_labels.clone(),
            bound: opts.compute_bound,
            attempt: 1,
        };
        let path = spool.units().join(spec.file_name());
        fs::write(&path, spec.to_json()).map_err(|e| io_err("write unit spec", &path, &e))?;
        units.push(spec.unit);
    }
    let manifest = Manifest {
        scenarios: scenario_names,
        policies: policy_labels,
        bound: opts.compute_bound,
        units,
    };
    // The catalog is the commit point: written last, atomically.
    write_atomic(&spool.catalog(), &manifest.to_json(), "catalog")?;
    Ok(manifest)
}

/// Which units are finished (result present) or poisoned.
fn spool_progress(spool: &Spool, manifest: &Manifest) -> (usize, Vec<String>) {
    let mut done = 0;
    let mut poisoned = Vec::new();
    for unit in &manifest.units {
        if spool.results().join(format!("{unit}.json")).exists() {
            done += 1;
        } else if spool.poison().join(format!("{unit}.json")).exists() {
            poisoned.push(unit.clone());
        }
    }
    (done, poisoned)
}

fn spool_complete(spool: &Spool, manifest: &Manifest) -> bool {
    let (done, poisoned) = spool_progress(spool, manifest);
    done + poisoned.len() == manifest.units.len()
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// Claims the lexicographically first pending unit by renaming it into
/// this worker's claim directory. The rename is the mutual exclusion:
/// exactly one claimant wins, losers see `NotFound` and move on.
fn claim_next(spool: &Spool, my_claims: &Path) -> Result<Option<PathBuf>, OrchestrateError> {
    for unit in sorted_json_files(&spool.units())? {
        let Some(name) = unit.file_name() else {
            continue;
        };
        let dest = my_claims.join(name);
        match fs::rename(&unit, &dest) {
            Ok(()) => return Ok(Some(dest)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(io_err("claim unit", &unit, &e)),
        }
    }
    Ok(None)
}

/// Runs one claimed unit through the in-process sweep core and publishes
/// its canonical result. Deterministic spec-level failures (unknown
/// scenario or policy) are poisoned immediately — retrying cannot fix
/// them — while I/O failures bubble up as errors.
fn execute_unit(
    spool: &Spool,
    claim: &Path,
    spec: &UnitSpec,
    threads: usize,
) -> Result<(), OrchestrateError> {
    let scenario = Scenario::by_name(&spec.scenario);
    let policies: Option<Vec<PolicySpec>> = spec
        .policies
        .iter()
        .map(|label| PolicySpec::parse(label))
        .collect();
    let (Some(scenario), Some(policies)) = (scenario, policies) else {
        let dest = spool.poison().join(spec.file_name());
        write_atomic(&dest, &spec.to_json(), "poison")?;
        fs::remove_file(claim).ok();
        return Ok(());
    };
    let report = run_sweep(
        &[scenario],
        &policies,
        SweepOptions {
            threads,
            compute_bound: spec.bound,
        },
    );
    let dest = spool.results().join(spec.file_name());
    write_atomic(&dest, &report.to_json(false), "result")?;
    // The claim may already be gone if the parent timed this unit out and
    // requeued it; the published result stands either way.
    fs::remove_file(claim).ok();
    Ok(())
}

/// The worker side of the spool protocol: claim → run → publish, until
/// every catalog unit is accounted for in `results/` or `poison/`.
///
/// # Errors
///
/// Returns [`OrchestrateError`] on spool I/O failures or a missing /
/// corrupt catalog. A corrupt *unit* is poisoned, not an error.
pub fn run_worker(opts: &WorkerOptions) -> Result<WorkerOutcome, OrchestrateError> {
    let spool = Spool::new(&opts.spool);
    let manifest = Manifest::load(&spool)?;
    let my_claims = spool.claimed().join(format!("w{}", opts.id));
    fs::create_dir_all(&my_claims).map_err(|e| io_err("create claim dir", &my_claims, &e))?;

    let mut units_done = 0usize;
    loop {
        let Some(claim) = claim_next(&spool, &my_claims)? else {
            if spool_complete(&spool, &manifest) {
                return Ok(WorkerOutcome::Drained { units_done });
            }
            std::thread::sleep(opts.poll_interval);
            continue;
        };
        let text =
            fs::read_to_string(&claim).map_err(|e| io_err("read claimed unit", &claim, &e))?;
        let spec = match UnitSpec::parse(&text, &claim) {
            Ok(spec) => spec,
            Err(_) => {
                recover_unit(&spool, &claim, 0, None)?; // budget 0 ⇒ straight to poison
                continue;
            }
        };
        if let Some(marker) = &opts.crash_once {
            // `create_new` makes the crash exclusive: one worker per marker.
            if fs::File::options()
                .write(true)
                .create_new(true)
                .open(marker)
                .is_ok()
            {
                return Ok(WorkerOutcome::CrashRequested);
            }
        }
        if opts.crash_on_unit.as_deref() == Some(spec.scenario.as_str()) {
            return Ok(WorkerOutcome::CrashRequested);
        }
        execute_unit(&spool, &claim, &spec, opts.threads)?;
        units_done += 1;
    }
}

// ---------------------------------------------------------------------------
// Orchestrator
// ---------------------------------------------------------------------------

struct WorkerSlot {
    child: Child,
    claim_dir: PathBuf,
}

fn spawn_worker(
    spool: &Spool,
    opts: &OrchestrateOptions,
    seq: usize,
) -> Result<WorkerSlot, OrchestrateError> {
    let (program, prefix) = opts
        .worker_cmd
        .split_first()
        .ok_or_else(|| ConfigError::InvalidValue {
            option: "worker_cmd".into(),
            reason: "empty worker command line".into(),
        })
        .map_err(OrchestrateError::from)?;
    let child = Command::new(program)
        .args(prefix)
        .arg("--spool")
        .arg(&spool.root)
        .args(["--id", &seq.to_string()])
        .args(["--threads", &opts.threads_per_worker.to_string()])
        .args(&opts.worker_extra_args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| OrchestrateError::Spawn {
            detail: format!("{program}: {e}"),
        })?;
    Ok(WorkerSlot {
        child,
        claim_dir: spool.claimed().join(format!("w{seq}")),
    })
}

/// Parses one canonical unit result back into cells.
fn parse_result(text: &str, path: &Path) -> Result<Vec<SweepCell>, OrchestrateError> {
    let report = SweepReport::from_json(text);
    let report = report.map_err(|detail| OrchestrateError::CorruptResult {
        path: path.display().to_string(),
        detail,
    })?;
    Ok(report.cells)
}

/// Merges unit results in catalog order into one report.
fn merge_results(spool: &Spool, manifest: &Manifest) -> Result<SweepReport, OrchestrateError> {
    let mut cells = Vec::with_capacity(manifest.units.len() * manifest.policies.len());
    for unit in &manifest.units {
        let path = spool.results().join(format!("{unit}.json"));
        let text = fs::read_to_string(&path).map_err(|e| io_err("read unit result", &path, &e))?;
        let unit_cells = parse_result(&text, &path)?;
        if unit_cells.len() != manifest.policies.len() {
            return Err(OrchestrateError::CorruptResult {
                path: path.display().to_string(),
                detail: format!(
                    "{} cells for {} policies",
                    unit_cells.len(),
                    manifest.policies.len()
                ),
            });
        }
        cells.extend(unit_cells);
    }
    Ok(SweepReport { cells })
}

/// Runs a scenario × policy sweep across `opts.workers` child processes
/// and merges their results deterministically.
///
/// The merged report's canonical serialisation
/// (`SweepReport::to_json(false)`) is byte-identical to an in-process
/// [`run_sweep`] of the same catalog, for any worker count — the §IV
/// decomposition carried across the process boundary.
///
/// # Errors
///
/// Typed [`OrchestrateError`]s for every failure mode: rejected
/// configuration, spool I/O, an existing spool without `resume`, a
/// mismatched resume manifest, worker spawn failures, an exhausted
/// respawn budget, and units poisoned after `max_attempts` failures.
/// The spool is left intact on error so `resume` can continue it.
pub fn orchestrate(
    spool_dir: &Path,
    scenarios: &[Scenario],
    policies: &[PolicySpec],
    opts: &OrchestrateOptions,
) -> Result<OrchestrateOutcome, OrchestrateError> {
    if opts.workers == 0 {
        return Err(ConfigError::ZeroWorkers.into());
    }
    if opts.max_attempts == 0 {
        return Err(ConfigError::ZeroAttempts.into());
    }
    if opts.unit_timeout.is_zero() {
        return Err(OrchestrateError::Config(ConfigError::InvalidValue {
            option: "unit_timeout".into(),
            reason: "must be positive".into(),
        }));
    }

    let spool = Spool::new(spool_dir);
    fs::create_dir_all(&spool.root).map_err(|e| io_err("create spool", &spool.root, &e))?;
    let manifest = init_spool(&spool, scenarios, policies, opts)?;
    let (resumed, _) = spool_progress(&spool, &manifest);

    let mut requeues = 0usize;
    let mut respawns = 0usize;
    let mut spawned = 0usize;
    // Enough budget to retry every unit to poison and still replace the
    // initial pool; a run needing more is wedged, not unlucky.
    let spawn_budget = opts.workers + manifest.units.len() * opts.max_attempts;
    let mut slots: Vec<WorkerSlot> = Vec::with_capacity(opts.workers);
    for _ in 0..opts.workers.min(manifest.units.len().max(1)) {
        slots.push(spawn_worker(&spool, opts, spawned)?);
        spawned += 1;
    }

    let mut first_seen: BTreeMap<PathBuf, Instant> = BTreeMap::new();
    loop {
        // Reap dead workers and recover whatever they were holding.
        let mut i = 0;
        while i < slots.len() {
            let exited = slots[i]
                .child
                .try_wait()
                .map_err(|e| io_err("reap worker", &slots[i].claim_dir, &e))?
                .is_some();
            if exited {
                let slot = slots.remove(i);
                for claim in sorted_json_files(&slot.claim_dir)? {
                    first_seen.remove(&claim);
                    if recover_unit(&spool, &claim, opts.max_attempts, None)? {
                        requeues += 1;
                    }
                }
            } else {
                i += 1;
            }
        }

        // Time out stuck units: kill the owner (its claim is recovered on
        // the next reap pass) so a wedged child cannot hold a unit forever.
        let now = Instant::now();
        let claims = claimed_files(&spool)?;
        first_seen.retain(|path, _| claims.contains(path));
        for claim in claims {
            let seen = *first_seen.entry(claim.clone()).or_insert(now);
            if now.duration_since(seen) >= opts.unit_timeout {
                let owner = claim.parent().map(Path::to_path_buf).unwrap_or_default();
                for slot in &mut slots {
                    if slot.claim_dir == owner {
                        slot.child.kill().ok();
                    }
                }
            }
        }

        if spool_complete(&spool, &manifest) {
            break;
        }

        // Keep the pool at strength while work remains claimable.
        let pending = !sorted_json_files(&spool.units())?.is_empty();
        if pending && slots.len() < opts.workers {
            if spawned >= spawn_budget {
                if slots.is_empty() {
                    return Err(OrchestrateError::SpawnBudgetExhausted { attempts: spawned });
                }
            } else {
                slots.push(spawn_worker(&spool, opts, spawned)?);
                spawned += 1;
                respawns += 1;
            }
        } else if pending && slots.is_empty() {
            return Err(OrchestrateError::SpawnBudgetExhausted { attempts: spawned });
        }

        std::thread::sleep(opts.poll_interval);
    }

    // Drain: workers exit on their own once they observe completion; give
    // them a grace window, then kill stragglers (e.g. a timed-out unit
    // still computing a result that is no longer needed).
    let deadline = Instant::now() + Duration::from_secs(5);
    for slot in &mut slots {
        loop {
            match slot.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() >= deadline => {
                    slot.child.kill().ok();
                    slot.child.wait().ok();
                    break;
                }
                Ok(None) => std::thread::sleep(opts.poll_interval),
                Err(_) => break,
            }
        }
    }

    let (_, poisoned) = spool_progress(&spool, &manifest);
    if !poisoned.is_empty() {
        return Err(OrchestrateError::Poisoned { units: poisoned });
    }
    let report = merge_results(&spool, &manifest)?;
    Ok(OrchestrateOutcome {
        report,
        units: manifest.units.len(),
        resumed,
        requeues,
        respawns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp_spool(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "rideshare-distrib-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_two() -> Vec<Scenario> {
        Scenario::tiny_catalog().into_iter().take(2).collect()
    }

    #[test]
    fn unit_spec_round_trips() {
        let spec = UnitSpec {
            unit: "0001-tiny-rides".into(),
            scenario: "tiny-rides".into(),
            policies: vec!["greedy".into(), "batch-3m".into()],
            bound: true,
            attempt: 2,
        };
        let parsed = UnitSpec::parse(&spec.to_json(), Path::new("x.json")).unwrap();
        assert_eq!(parsed, spec);
        assert!(UnitSpec::parse("{}", Path::new("x.json")).is_err());
        assert!(UnitSpec::parse("not json", Path::new("x.json")).is_err());
    }

    #[test]
    fn a_staged_tmp_file_is_never_listed_or_claimed() {
        let dir = tmp_spool("staged");
        let spool = Spool::new(&dir);
        let my_claims = spool.claimed().join("w0");
        fs::create_dir_all(spool.units()).unwrap();
        fs::create_dir_all(&my_claims).unwrap();
        // A requeue caught between its write and its rename.
        let unit = spool.units().join("0000-tiny-rides.json");
        let staged = tmp_path(&unit, "requeue");
        assert_eq!(staged.parent(), unit.parent());
        fs::write(&staged, "{}").unwrap();
        assert!(sorted_json_files(&spool.units()).unwrap().is_empty());
        assert_eq!(claim_next(&spool, &my_claims).unwrap(), None);
        assert!(staged.exists());
        // Once committed, the unit is claimed and the staged name is free.
        fs::rename(&staged, &unit).unwrap();
        assert_eq!(
            claim_next(&spool, &my_claims).unwrap(),
            Some(my_claims.join("0000-tiny-rides.json"))
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            scenarios: vec!["a".into(), "b".into()],
            policies: vec!["greedy".into()],
            bound: false,
            units: vec!["0000-a".into(), "0001-b".into()],
        };
        assert_eq!(
            Manifest::parse(&m.to_json(), Path::new("c.json")).unwrap(),
            m
        );
    }

    #[test]
    fn in_process_worker_drains_spool_and_merge_is_byte_identical() {
        let dir = tmp_spool("drain");
        let scenarios = tiny_two();
        let policies = [PolicySpec::Greedy, PolicySpec::Nearest];
        let opts = OrchestrateOptions {
            compute_bound: false,
            ..OrchestrateOptions::default()
        };
        let spool = Spool::new(&dir);
        let manifest = init_spool(&spool, &scenarios, &policies, &opts).unwrap();
        let outcome = run_worker(&WorkerOptions {
            spool: dir.clone(),
            id: "t".into(),
            threads: 1,
            poll_interval: Duration::from_millis(1),
            crash_once: None,
            crash_on_unit: None,
        })
        .unwrap();
        assert_eq!(outcome, WorkerOutcome::Drained { units_done: 2 });
        let merged = merge_results(&spool, &manifest).unwrap();
        let reference = run_sweep(
            &scenarios,
            &policies,
            SweepOptions {
                threads: 1,
                compute_bound: false,
            },
        );
        assert_eq!(merged.to_json(false), reference.to_json(false));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_spool_refuses_reuse_without_resume() {
        let dir = tmp_spool("reuse");
        let scenarios = tiny_two();
        let policies = [PolicySpec::Greedy];
        let opts = OrchestrateOptions {
            compute_bound: false,
            ..OrchestrateOptions::default()
        };
        let spool = Spool::new(&dir);
        init_spool(&spool, &scenarios, &policies, &opts).unwrap();
        let err = init_spool(&spool, &scenarios, &policies, &opts).unwrap_err();
        assert!(matches!(err, OrchestrateError::SpoolExists { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_mismatched_manifest_and_requeues_claims() {
        let dir = tmp_spool("resume");
        let scenarios = tiny_two();
        let policies = [PolicySpec::Greedy];
        let opts = OrchestrateOptions {
            compute_bound: false,
            resume: true,
            ..OrchestrateOptions::default()
        };
        let spool = Spool::new(&dir);
        init_spool(&spool, &scenarios, &policies, &opts).unwrap();

        // Orphan one claim as if a worker died mid-unit.
        let unit = sorted_json_files(&spool.units()).unwrap().remove(0);
        let claim_dir = spool.claimed().join("wdead");
        fs::create_dir_all(&claim_dir).unwrap();
        let claim = claim_dir.join(unit.file_name().unwrap());
        fs::rename(&unit, &claim).unwrap();

        // Mismatched policies must refuse to resume.
        let err = init_spool(&spool, &scenarios, &[PolicySpec::Random], &opts).unwrap_err();
        assert!(
            matches!(err, OrchestrateError::ManifestMismatch { .. }),
            "{err}"
        );

        // A matching resume requeues the orphan with a bumped attempt.
        init_spool(&spool, &scenarios, &policies, &opts).unwrap();
        assert!(!claim.exists());
        let requeued = sorted_json_files(&spool.units()).unwrap();
        assert_eq!(requeued.len(), 2);
        let spec =
            UnitSpec::parse(&fs::read_to_string(&requeued[0]).unwrap(), &requeued[0]).unwrap();
        assert_eq!(spec.attempt, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_unit_poisons_after_budget() {
        let dir = tmp_spool("poison");
        let scenarios = tiny_two();
        let policies = [PolicySpec::Greedy];
        let opts = OrchestrateOptions {
            compute_bound: false,
            max_attempts: 2,
            ..OrchestrateOptions::default()
        };
        let spool = Spool::new(&dir);
        init_spool(&spool, &scenarios, &policies, &opts).unwrap();
        let unit = sorted_json_files(&spool.units()).unwrap().remove(0);
        let claim_dir = spool.claimed().join("w0");
        fs::create_dir_all(&claim_dir).unwrap();
        let claim = claim_dir.join(unit.file_name().unwrap());

        // Attempt 1 → requeue as attempt 2; attempt 2 → poison.
        fs::rename(&unit, &claim).unwrap();
        assert!(recover_unit(&spool, &claim, 2, None).unwrap());
        let requeued = &sorted_json_files(&spool.units()).unwrap()[0];
        fs::rename(requeued, &claim).unwrap();
        assert!(!recover_unit(&spool, &claim, 2, None).unwrap());
        assert_eq!(sorted_json_files(&spool.poison()).unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn orchestrate_rejects_bad_config() {
        let dir = tmp_spool("cfg");
        let scenarios = tiny_two();
        let err = orchestrate(
            &dir,
            &scenarios,
            &[PolicySpec::Greedy],
            &OrchestrateOptions {
                workers: 0,
                ..OrchestrateOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            OrchestrateError::Config(ConfigError::ZeroWorkers)
        ));
        let err = orchestrate(
            &dir,
            &scenarios,
            &[PolicySpec::Greedy],
            &OrchestrateOptions {
                max_attempts: 0,
                ..OrchestrateOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            OrchestrateError::Config(ConfigError::ZeroAttempts)
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_result_round_trips_cells() {
        let scenarios = tiny_two();
        let report = run_sweep(
            &scenarios[..1],
            &[PolicySpec::Greedy, PolicySpec::Random],
            SweepOptions {
                threads: 1,
                compute_bound: true,
            },
        );
        let cells = parse_result(&report.to_json(false), Path::new("r.json")).unwrap();
        let round = SweepReport { cells };
        assert_eq!(round.to_json(false), report.to_json(false));
        assert!(parse_result("{}", Path::new("r.json")).is_err());
    }
}
