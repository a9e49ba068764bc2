//! The stage probe: what the engine reads and where its time goes, per
//! stage. Compiled only with the `stage-probe` feature; without it the
//! crate's `probe!` hooks expand to nothing.
//!
//! Counters are exact and deterministic: per candidate scan the cells its
//! cover names, the cell entries it walks, the exact evaluations those
//! entries reach and the candidates it returns; per early-flush search the
//! cell entries it reads. Nanoseconds come from the one [`StageClock`]
//! installed with [`install_clock`]: the engine never reads a clock itself,
//! and with none installed every stage reads zero.
//!
//! Each thread tallies into its own counters, which
//! [`crate::StreamEngine::finish`] adds to the process total, so the
//! shards of a threaded replay count once each; [`readings`] reads the
//! total.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// A monotonic nanosecond source for the stage timers.
pub trait StageClock: Sync {
    /// Nanoseconds since an origin the clock chooses and keeps.
    fn now_ns(&self) -> u64;
}

/// What the engine counts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Count {
    /// Candidate scans (`Fleet::candidates_into` calls).
    Scans,
    /// Cells the scans' covers named.
    Cells,
    /// Cell entries the scans walked: free by the pickup deadline.
    Entries,
    /// Walked entries no disc bound rejected: exact evaluations.
    Evaluations,
    /// Candidates the scans returned.
    Candidates,
    /// Early-flush searches (`Fleet::latest_decision` calls).
    Searches,
    /// Cell entries the searches read.
    SearchEntries,
}

/// Where the engine's time goes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// Candidate scans.
    Scan,
    /// The instant policy's choice, or one batched matcher round.
    Choose,
    /// Batched mode's refresh of the committed drivers' entries.
    Refresh,
    /// Committing a dispatch to the fleet.
    Commit,
    /// Reporting decisions and window boundaries to the sink.
    Sink,
    /// Batched mode's early-flush epochs, searched and sorted.
    EarlyFlush,
}

/// How many [`Count`]s there are.
const COUNTS: usize = Count::SearchEntries as usize + 1;

impl Stage {
    const ALL: [Stage; 6] = [
        Stage::Scan,
        Stage::Choose,
        Stage::Refresh,
        Stage::Commit,
        Stage::Sink,
        Stage::EarlyFlush,
    ];

    fn name(self) -> &'static str {
        match self {
            Stage::Scan => "scan",
            Stage::Choose => "choose",
            Stage::Refresh => "refresh",
            Stage::Commit => "commit",
            Stage::Sink => "sink",
            Stage::EarlyFlush => "early flush",
        }
    }
}

/// The probe's readings: every [`Count`] and the nanoseconds of every
/// [`Stage`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StageReadings {
    counts: [u64; COUNTS],
    ns: [u64; Stage::ALL.len()],
}

impl StageReadings {
    const ZERO: Self = Self {
        counts: [0; COUNTS],
        ns: [0; Stage::ALL.len()],
    };

    /// The tally of `count`.
    #[must_use]
    pub fn count(&self, count: Count) -> u64 {
        self.counts[count as usize]
    }

    /// Nanoseconds spent in `stage`.
    #[must_use]
    pub fn ns(&self, stage: Stage) -> u64 {
        self.ns[stage as usize]
    }

    fn add(&mut self, other: &Self) {
        for (total, n) in self.counts.iter_mut().zip(other.counts) {
            *total += n;
        }
        for (total, n) in self.ns.iter_mut().zip(other.ns) {
            *total += n;
        }
    }
}

/// Per scan and per search, then nanoseconds per stage.
impl fmt::Display for StageReadings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let per = |count: Count, of: Count| match self.count(of) {
            0 => 0.0,
            n => self.count(count) as f64 / n as f64,
        };
        let scans = self.count(Count::Scans);
        writeln!(
            f,
            "stage probe: {scans} scan(s): {:.2} cells, {:.2} entries walked, {:.2} evaluations, \
             {:.2} candidates per scan",
            per(Count::Cells, Count::Scans),
            per(Count::Entries, Count::Scans),
            per(Count::Evaluations, Count::Scans),
            per(Count::Candidates, Count::Scans),
        )?;
        writeln!(
            f,
            "stage probe: {} early-flush search(es): {:.2} entries read per search",
            self.count(Count::Searches),
            per(Count::SearchEntries, Count::Searches),
        )?;
        write!(f, "stage probe: ms")?;
        for stage in Stage::ALL {
            write!(f, " {} {:.1}", stage.name(), self.ns(stage) as f64 / 1e6)?;
        }
        Ok(())
    }
}

static CLOCK: OnceLock<&'static dyn StageClock> = OnceLock::new();

/// The process total, which [`flush`] adds each thread's tally to.
static TOTAL: Mutex<StageReadings> = Mutex::new(StageReadings::ZERO);

thread_local! {
    static LOCAL: RefCell<StageReadings> = const { RefCell::new(StageReadings::ZERO) };
    /// The instant the running lap started.
    static LAP: Cell<u64> = const { Cell::new(0) };
}

/// Installs the clock the stage timers read; `false` if one already was.
pub fn install_clock(clock: &'static dyn StageClock) -> bool {
    CLOCK.set(clock).is_ok()
}

/// The process total, this thread's tally included.
#[must_use]
pub fn readings() -> StageReadings {
    flush();
    *TOTAL
        .lock()
        .expect("no thread panics while adding to the probe's total")
}

fn now() -> u64 {
    CLOCK.get().map_or(0, |clock| clock.now_ns())
}

/// Adds `n` to this thread's tally of `count`.
pub(crate) fn count(count: Count, n: u64) {
    LOCAL.with_borrow_mut(|local| local.counts[count as usize] += n);
}

/// Starts a lap.
pub(crate) fn start() {
    LAP.set(now());
}

/// Charges the time since the lap started to `stage`, and starts the next.
pub(crate) fn lap(stage: Stage) {
    let at = now();
    let ns = at.saturating_sub(LAP.replace(at));
    LOCAL.with_borrow_mut(|local| local.ns[stage as usize] += ns);
}

/// Moves this thread's tally into the process total.
pub(crate) fn flush() {
    let local = LOCAL.replace(StageReadings::ZERO);
    TOTAL
        .lock()
        .expect("no thread panics while adding to the probe's total")
        .add(&local);
}
