//! The CLI's one front door: every subcommand declares its flags in
//! [`COMMANDS`], [`parse`] is the only code that reads the argument
//! vector, and the usage text is generated from the same tables — so an
//! undeclared flag cannot be read, and a misspelt, repeated or value-less
//! one is a typed error instead of a silently different experiment.

use std::fmt;

/// One declared flag of a subcommand.
pub struct Flag {
    /// The spelling on the command line (`--tasks`).
    pub name: &'static str,
    /// Placeholder of the value it takes (`N`); empty for a switch.
    pub value: &'static str,
    /// Whether the subcommand refuses to run without it.
    pub required: bool,
    /// One-line description.
    pub help: &'static str,
}

const fn val(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        value,
        required: false,
        help,
    }
}

const fn req(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag {
        required: true,
        ..val(name, value, help)
    }
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    val(name, "", help)
}

/// One subcommand: its flag table (a list of shared groups) and handler.
pub struct Command {
    /// The subcommand word.
    pub name: &'static str,
    /// One-line description, shown under the synopsis.
    pub about: &'static str,
    /// The flag groups it accepts, concatenated in synopsis order.
    pub groups: &'static [&'static [Flag]],
    /// The handler the parsed flags are handed to.
    pub run: fn(&Parsed<'_>) -> Result<(), String>,
}

/// The `--policy` grammar of the online surfaces (`online_policy`).
pub const POLICY: &str = "margin|nearest|batch-<W>|batch-opt-<W>";
const POLICY_FLAG: Flag = val("--policy", POLICY, "default margin; hold window W ≤ 366d");

const DIR: &[Flag] = &[req("--dir", "DIR", "trips.csv + drivers.csv from generate")];
/// The synthetic-day shape (`trace_config` reads exactly this group).
const TRACE: &[Flag] = &[
    val("--tasks", "N", "orders in the synthetic day"),
    val("--drivers", "N", "drivers in the synthetic day"),
    val("--seed", "S", "trace seed (default 0)"),
    val("--model", "hitch|hwh", "driver model (default hitch)"),
    switch("--delivery", "the delivery-market preset"),
];
const SURGE: Flag = val("--surge-window", "MINS", "surge mins (30; 0 off; ≤ 366d)");
const REGIONS: Flag = val("--regions", "K", "disjoint service regions in the trace");
/// The shard geometry (`shard_geometry` reads exactly this group).
const SHARDING: &[Flag] = &[
    val("--shards", "N", "region-sharded engines (default 1)"),
    REGIONS,
];
/// What `replay` and `serve` share: the policy, the report and the store.
const STREAM: &[Flag] = &[
    POLICY_FLAG,
    switch("--quiet-table", "omit the per-hour metrics table"),
    switch("--canonical", "omit wall-clock lines (byte-stable)"),
    val("--tsdb-dir", "DIR", "record per-window metrics here"),
    val("--tsdb-scenario", "NAME", "scenario label of the series"),
];
/// The sweep matrix and its outputs, shared by `sweep` and `orchestrate`.
const MATRIX: &[Flag] = &[
    val("--scenarios", "all|tiny|a,b,…", "catalog selection"),
    val("--policies", "p,q,…|w-sweep", "policy columns"),
    val("--threads", "N", "threads per process ≥ 1 (default: cores)"),
    switch("--no-bound", "skip the Z_f* upper bound"),
    switch("--canonical", "omit wall-times (the CI snapshot form)"),
    val("--json", "PATH", "write the report as JSON"),
    val("--csv", "PATH", "write the report as CSV"),
];
/// A duration: plain seconds or a suffix form (what `secs_or` parses).
const DURATION: &str = "SECS|90s|30m|2h|1d";
const SPOOL: Flag = req("--spool", "DIR", "the crash-safe spool directory");
/// The longest span a minutes- or hours-valued flag admits: 366 days, the
/// bound `PolicySpec::parse` puts on a hold window, so none of them comes
/// within reach of `i64` once added to a stream timestamp.
const MAX_SPAN_SECS: i64 = 366 * 86_400;

/// One row per subcommand — `word [flag groups] "about";` — handled by
/// the function of the same name in `main.rs`.
macro_rules! commands {
    ($($name:ident $groups:tt $about:literal;)*) => {
        &[$(Command {
            name: stringify!($name),
            about: $about,
            groups: &$groups,
            run: crate::$name,
        }),*]
    };
}

/// Every subcommand, in usage order.
pub static COMMANDS: &[Command] = commands! {
    generate    [TRACE, &[OUT_DIR]]                  "synthesise a Porto day as trips.csv + drivers.csv";
    summary     [DIR]                                "structural statistics of a market";
    solve       [DIR]                                "offline greedy, Alg. 1";
    simulate    [DIR, &[POLICY_FLAG]]                "Algs. 3-4 / batched dispatch";
    bound       [DIR]                                "LP upper bound Z_f*";
    sweep       [MATRIX]                             "scenario × policy matrix, parallel sharded";
    orchestrate [&[SPOOL], MATRIX, ORCHESTRATE]      "the sweep matrix over crash-safe worker processes";
    worker      [&[SPOOL], WORKER]                   "spool worker; spawned by orchestrate or run by hand";
    replay      [TRACE, &[SURGE, INPUT], SHARDING, STREAM] "bounded-memory streaming replay; N can be millions";
    export      [TRACE, &[SURGE, REGIONS], EXPORT]   "write the priced event stream as an ingestable log";
    serve       [SERVE, SHARDING, STREAM]            "long-running dispatch daemon over a live event feed";
    query       [QUERY]                              "range queries over a recorded telemetry store";
    audit       [AUDIT]                              "static determinism & invariant audit of the sources";
    fig2        [FIG2]                               "Fig. 2: tightness of GA's 1/(D+1) ratio";
    fig3_4      [FIG3_4]                             "Figs. 3-4: travel time and distance distributions";
    fig5        [&[POINT_TASKS, QUICK], FIG5]        "Fig. 5: performance ratio against Z_f*, per driver model";
    fig6_9      [&[POINT_TASKS, QUICK]]              "Figs. 6-9: revenue, service rate and per-worker load";
    small_scale [SMALL_SCALE]                        "§VI-B: exact Z* against Z_f* and the three algorithms";
    ablations   [&[QUICK]]                           "what each design choice buys, by switching it off";
};

const OUT_DIR: Flag = req("--out", "DIR", "output directory");
const ORCHESTRATE: &[Flag] = &[
    val("--workers", "N", "worker child processes (default 2)"),
    switch("--resume", "continue a partial spool"),
    val("--timeout", DURATION, "kill a stuck worker (default 300s)"),
    val("--retries", "K", "attempts before a unit is poisoned (3)"),
    switch("--fault-crash-once", "CI: one worker dies mid-unit"),
];
const WORKER: &[Flag] = &[
    val("--id", "ID", "claim-directory name (default: the pid)"),
    val("--threads", "N", "threads per unit, ≥ 1 (default 1)"),
    val("--poll-ms", "N", "spool polling interval (default 25)"),
    val("--crash-once", "FILE", "fault: die once, FILE is the latch"),
    val("--crash-on-unit", "NAME", "fault: die claiming NAME"),
];
const INPUT: Flag = val("--input", "FILE.rtb", "replay this binary event log");
const EXPORT: &[Flag] = &[
    val("--format", "jsonl|csv|bin", "log encoding (default jsonl)"),
    val("--out", "PATH", "output file (default: stdout)"),
];
const SOURCE: &str = "jsonl:PATH|csv:PATH|tcp:ADDR";
const SERVE: &[Flag] = &[
    req("--source", SOURCE, "the event feed"),
    switch("--follow", "tail a growing file until its end-of-stream"),
    val("--snapshot-dir", "DIR", "write metrics snapshots here"),
    val("--snapshot-mins", "M", "stream mins/snapshot (60; ≤ 366d)"),
    val("--day-hours", "H", "stream hours per day (24; ≤ 366d)"),
];
const QUERY: &[Flag] = &[
    req("--tsdb", "DIR", "the store a --tsdb-dir run recorded"),
    switch("--list", "table the stored series instead"),
    val("--filter", "k=v,k=v…", "narrow by label"),
    val("--from", DURATION, "range start (default: everything)"),
    val("--to", DURATION, "range end, exclusive"),
    val("--step", DURATION, "window length (default 3600)"),
    val("--agg", "sum|avg|rate|min|max", "projection (default sum)"),
    switch("--canonical", "byte-stable JSON (rideshare-tsdb/1)"),
];
const AUDIT: &[Flag] = &[
    val("--root", "DIR", "workspace root (default .)"),
    switch("--json", "canonical JSON report"),
    switch("--check", "CI mode: summary line only when clean"),
    switch("--verbose", "also list waived findings"),
];

const FIG2: &[Flag] = &[val("--depth", "D", "largest diameter D swept (default 6)")];
const FIG3_4: &[Flag] = &[val("--trips", "N", "trips in the trace (default 20000)")];
const POINT_TASKS: Flag = val("--tasks", "N", "orders per point (1000; 200 with --quick)");
const QUICK: Flag = switch("--quick", "smoke-test sizes");
const FIG5: &[Flag] = &[val("--model", "hitch|hwh", "one panel (default: both)")];
const SMALL_SCALE: &[Flag] = &[val("--seeds", "N", "seeds per instance size (default 5)")];

/// Why an argument vector was refused: always the subcommand, the flag,
/// and what was wrong with it.
#[derive(Debug, PartialEq)]
pub struct FlagError {
    /// The subcommand whose table refused it.
    pub cmd: &'static str,
    /// The flag (or stray argument) at fault, as spelt.
    pub flag: String,
    /// What was wrong.
    pub fault: Fault,
}

/// The ways a flag can be wrong.
#[derive(Debug, PartialEq)]
pub enum Fault {
    /// The subcommand does not declare it.
    Unknown,
    /// Given twice.
    Repeated,
    /// Takes a value and none followed.
    NoValue,
    /// Required and absent.
    Required,
    /// Its grammar does not admit the value.
    BadValue {
        value: String,
        expected: &'static str,
    },
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let FlagError { cmd, flag, fault } = self;
        match fault {
            Fault::Unknown => write!(f, "{cmd}: unknown flag '{flag}'"),
            Fault::Repeated => write!(f, "{cmd}: {flag} given more than once"),
            Fault::NoValue => write!(f, "{cmd}: {flag} needs a value"),
            Fault::Required => write!(f, "{cmd}: {flag} is required"),
            Fault::BadValue { value, expected } => {
                write!(f, "{cmd}: bad {flag} '{value}' (expected {expected})")
            }
        }
    }
}

impl From<FlagError> for String {
    /// The refusal above the usage of the subcommand that made it —
    /// whether `parse` refused the vector or a handler one value.
    fn from(e: FlagError) -> String {
        let cmd = COMMANDS.iter().find(|c| c.name == e.cmd);
        format!("{e}\n\n{}", cmd.map(Command::usage).unwrap_or_default())
    }
}

impl Command {
    /// The declared flags, in synopsis order.
    pub fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.groups.iter().flat_map(|group| group.iter())
    }

    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags().find(|f| f.name == name)
    }

    fn refuse(&self, flag: &str, fault: Fault) -> FlagError {
        FlagError {
            cmd: self.name,
            flag: flag.to_string(),
            fault,
        }
    }

    /// `rideshare NAME [--flag VALUE]…`, wrapped with a hanging indent.
    fn synopsis(&self) -> String {
        let mut lines = vec![format!("  rideshare {:<8}", self.name)];
        for f in self.flags() {
            let spelling = format!("{} {}", f.name, f.value);
            let item = match f.required {
                true => spelling,
                false => format!("[{}]", spelling.trim_end()),
            };
            if lines.last().map_or(0, |l| l.chars().count()) + 1 + item.chars().count() > 78 {
                lines.push(" ".repeat(20));
            }
            let line = lines.last_mut().expect("starts non-empty");
            line.push(' ');
            line.push_str(&item);
        }
        lines.push(format!("{}({})", " ".repeat(21), self.about));
        lines.join("\n")
    }

    /// The synopsis plus one help line per flag: what a refused
    /// invocation of this subcommand is answered with.
    pub fn usage(&self) -> String {
        let mut out = format!("USAGE:\n{}\n", self.synopsis());
        for f in self.flags() {
            let spelling = format!("{} {}", f.name, f.value);
            out.push_str(&format!("\n  {spelling:<30} {}", f.help));
        }
        out
    }
}

/// The whole-program usage text: every synopsis, then the prose.
pub fn usage() -> String {
    let synopses: Vec<String> = COMMANDS.iter().map(Command::synopsis).collect();
    format!("{HEADLINE}\n\nUSAGE:\n{}\n\n{PROSE}", synopses.join("\n"))
}

const HEADLINE: &str = "rideshare — optimization framework for online ride-sharing markets";

/// A subcommand's flags as given, checked against its table.
pub struct Parsed<'a> {
    /// The subcommand they were given to.
    pub cmd: &'static Command,
    given: Vec<(&'static str, &'a str)>,
}

/// Checks `args` (everything after the subcommand word) against `cmd`'s
/// table. Nothing else in the CLI reads the argument vector.
pub fn parse<'a>(cmd: &'static Command, args: &'a [String]) -> Result<Parsed<'a>, FlagError> {
    let mut given: Vec<(&'static str, &'a str)> = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let flag = cmd
            .flag(arg)
            .ok_or_else(|| cmd.refuse(arg, Fault::Unknown))?;
        if given.iter().any(|(g, _)| *g == flag.name) {
            return Err(cmd.refuse(arg, Fault::Repeated));
        }
        // A value may begin with `-` (`--from -3600`); only one of this
        // subcommand's own flags in its place means it was left out.
        let value = match flag.value {
            "" => "",
            _ => match rest.next() {
                Some(v) if cmd.flag(v).is_none() => v.as_str(),
                _ => return Err(cmd.refuse(arg, Fault::NoValue)),
            },
        };
        given.push((flag.name, value));
    }
    let absent = |f: &&Flag| f.required && !given.iter().any(|(g, _)| *g == f.name);
    match cmd.flags().find(absent) {
        Some(f) => Err(cmd.refuse(f.name, Fault::Required)),
        None => Ok(Parsed { cmd, given }),
    }
}

impl<'a> Parsed<'a> {
    /// The value given for `name`, if it was given (`""` for a switch).
    /// Reading a flag the subcommand's table omits is a bug in the CLI.
    pub fn value(&self, name: &str) -> Option<&'a str> {
        assert!(self.cmd.flag(name).is_some(), "{name} is undeclared");
        let given = self.given.iter().find(|(g, _)| *g == name);
        given.map(|(_, v)| *v)
    }

    /// Whether the switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The value of a flag the table marks required.
    pub fn required(&self, name: &str) -> &'a str {
        self.value(name).expect("parse() refuses its absence")
    }

    /// The typed refusal of `name`'s value, quoting the table's grammar.
    pub fn bad(&self, name: &str) -> FlagError {
        let value = self.value(name).unwrap_or_default().to_string();
        let expected = self.cmd.flag(name).map_or("", |f| f.value);
        self.cmd.refuse(name, Fault::BadValue { value, expected })
    }

    /// `name` parsed as a `T`, or `default` when absent.
    pub fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, FlagError> {
        let parse = |v: &str| v.parse().map_err(|_| self.bad(name));
        self.value(name).map_or(Ok(default), parse)
    }

    /// `name` as a count of at least one, if given.
    pub fn count(&self, name: &str) -> Result<Option<usize>, FlagError> {
        let count = self.value(name).map(str::parse).transpose();
        match count {
            Ok(Some(0)) | Err(_) => Err(self.bad(name)),
            Ok(count) => Ok(count),
        }
    }

    /// `name` (or `default`) as whole `unit`-second units — at least
    /// `least` of them, at most [`MAX_SPAN_SECS`] — in seconds.
    pub fn span_or(
        &self,
        name: &str,
        unit: i64,
        default: i64,
        least: i64,
    ) -> Result<i64, FlagError> {
        let units: i64 = self.parse_or(name, default)?;
        let secs = units.checked_mul(unit);
        let admitted = secs.filter(|secs| units >= least && *secs <= MAX_SPAN_SECS);
        admitted.ok_or_else(|| self.bad(name))
    }

    /// `name` parsed as a [`DURATION`], or `default` when absent.
    pub fn secs_or(&self, name: &str, default: i64) -> Result<i64, FlagError> {
        let Some(v) = self.value(name) else {
            return Ok(default);
        };
        let (digits, unit) = v.split_at(v.len() - usize::from(v.ends_with(['s', 'm', 'h', 'd'])));
        let mult = match unit {
            "m" => 60,
            "h" => 3600,
            "d" => 86_400,
            _ => 1,
        };
        let secs = digits.parse::<i64>().ok().and_then(|n| n.checked_mul(mult));
        secs.ok_or_else(|| self.bad(name))
    }
}

const PROSE: &str = "\
Policies: greedy, maxMargin, nearest, random, batch-<W> and batch-opt-<W>
where <W> is a hold window like 3m or 90s, at most 366 days (greedy vs
optimal per-batch matcher); `--policies w-sweep` expands to the batching
study. The online surfaces (`simulate`, `replay`, `serve`) take the same
labels minus the offline `greedy` and the `random` baseline, with `margin`
for maxMargin. `sweep --scenarios list` prints the catalog. `--canonical`
omits wall-times, so reports are byte-identical across thread, worker and
shard counts (the CI snapshot form).

`orchestrate` splits the catalog into one self-describing unit file per
scenario under `--spool DIR`; workers claim units by atomic rename (the
filesystem is the lock), run them through the identical sweep core, and
publish canonical results the parent merges in catalog order —
byte-identical to `sweep --canonical` for any worker count. A worker that
dies mid-unit leaves its claim behind: the parent requeues the unit (up to
`--retries` attempts, then poisons it and fails) and kills workers stuck
past `--timeout`; the spool survives every failure, so `--resume` always
continues without recomputing finished units.

`replay` never materialises the trace: trips generate lazily in publish
order, prices come from the rolling-window surge pricer, and resident
state stays O(held orders + drivers) — the logged high-water mark shows
it. `--shards N` runs the region-sharded parallel engine over an N-region
trace (or `--regions K ≥ N` regions folded round-robin): decisions and
metrics are byte-identical to `--shards 1` on the same `--regions`.
`--input FILE.rtb` skips the generator and the pricer: events decode
zero-copy out of the log `export --format bin` wrote, with decisions
byte-identical to the generated feed over the same trace.

`--tsdb-dir DIR` (replay and serve) records per-window metric deltas —
served, rejected, revenue, profit, wait_secs, deadhead, active_drivers —
losslessly, labelled {scenario, policy, region, shard, metric}; the label
is the parsed policy's, so `maxMargin` ≡ `margin` and `batch-180s` ≡
`batch-3m` land in one series. `query --filter policy=margin,metric=profit`
reads them back over the half-open range `--from/--to`.

`serve` ingests an `export`ed log — or the same events framed over TCP
(`tcp:ADDR` binds and serves one connection) — through the identical
engines: a drained daemon's report is byte-identical to `replay
--canonical` on the same trace, for any shard count and ingestion backend.
`--snapshot-dir` also receives per-day tables and a final snapshot.
Malformed input drains cleanly and exits nonzero — never a panic.

`fig2` … `ablations` print the paper's evaluation (§VI; docs/PAPER_MAP.md
maps each figure to its command) at paper size; `--quick` and the count
flags shrink them. `fig5` is one `sweep` over its points with the Z_f*
bound, on all cores; it and `fig6_9` report progress on stderr.";

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).expect(name)
    }

    /// The smallest argument vector `cmd` accepts: its required flags,
    /// leaving `except` out.
    fn required_args(cmd: &Command, except: &str) -> Vec<String> {
        cmd.flags()
            .filter(|f| f.required && f.name != except)
            .flat_map(|f| strings(&[f.name, "x"]))
            .collect()
    }

    fn refusal(cmd: &'static Command, mut args: Vec<String>, extra: &[&str]) -> FlagError {
        args.extend(strings(extra));
        match parse(cmd, &args) {
            Ok(_) => panic!("{} accepted {args:?}", cmd.name),
            Err(e) => e,
        }
    }

    #[test]
    fn every_table_refuses_what_it_does_not_declare_and_documents_what_it_does() {
        assert_eq!(COMMANDS.len(), 19);
        let whole_program = usage();
        for cmd in COMMANDS {
            let base = required_args(cmd, "");
            assert!(parse(cmd, &base).is_ok(), "{}: {base:?}", cmd.name);
            let named = |e: &FlagError, flag: &str, fault: Fault| {
                assert_eq!((e.cmd, e.flag.as_str(), &e.fault), (cmd.name, flag, &fault));
                let text = e.to_string();
                assert!(text.contains(cmd.name) && text.contains(flag), "{text}");
            };
            // An undeclared flag and a stray positional argument.
            named(
                &refusal(cmd, base.clone(), &["--frobnicate"]),
                "--frobnicate",
                Fault::Unknown,
            );
            named(
                &refusal(cmd, base.clone(), &["stray"]),
                "stray",
                Fault::Unknown,
            );

            let mut seen = Vec::new();
            for flag in cmd.flags() {
                assert!(
                    !seen.contains(&flag.name),
                    "{}: {} declared twice",
                    cmd.name,
                    flag.name
                );
                seen.push(flag.name);
                let once: &[&str] = if flag.value.is_empty() {
                    &[flag.name]
                } else {
                    &[flag.name, "x"]
                };

                // Misspelt by one dropped letter (a boolean no less than a value flag).
                let misspelt = &flag.name[..flag.name.len() - 1];
                assert!(
                    cmd.flag(misspelt).is_none(),
                    "{misspelt} is itself declared"
                );
                named(
                    &refusal(cmd, base.clone(), &[misspelt]),
                    misspelt,
                    Fault::Unknown,
                );

                // Given twice.
                let without = required_args(cmd, flag.name);
                let twice = [once, once].concat();
                named(
                    &refusal(cmd, without.clone(), &twice),
                    flag.name,
                    Fault::Repeated,
                );

                // A value flag in last position, or with a declared flag where its value belongs.
                if !flag.value.is_empty() {
                    named(
                        &refusal(cmd, without.clone(), &[flag.name]),
                        flag.name,
                        Fault::NoValue,
                    );
                    let next = cmd.flags().find(|f| f.name != flag.name).map(|f| f.name);
                    if let Some(next) = next {
                        named(
                            &refusal(cmd, without.clone(), &[flag.name, next]),
                            flag.name,
                            Fault::NoValue,
                        );
                    }
                }
                // Required and absent.
                if flag.required {
                    named(&refusal(cmd, without, &[]), flag.name, Fault::Required);
                }

                // Every declared flag is in the generated usage, both forms.
                let spelling = format!("{} {}", flag.name, flag.value);
                assert!(cmd
                    .usage()
                    .contains(&format!("  {spelling:<30} {}", flag.help)));
                assert!(
                    cmd.synopsis().contains(spelling.trim_end()),
                    "{}",
                    cmd.synopsis()
                );
                assert!(whole_program.contains(&cmd.synopsis()));
            }
        }
    }

    #[test]
    fn synopsis_lines_fit_a_terminal() {
        for line in usage().lines() {
            assert!(line.chars().count() <= 80, "{line}");
        }
    }

    #[test]
    fn values_may_begin_with_a_dash() {
        let args = strings(&[
            "--tsdb", "d", "--from", "-3600", "--to", "-60s", "--filter", "-",
        ]);
        let p = parse(command("query"), &args).expect("negative values parse");
        assert_eq!(p.secs_or("--from", 0), Ok(-3600));
        assert_eq!(p.secs_or("--to", 0), Ok(-60));
        assert_eq!(p.value("--filter"), Some("-"));
        assert_eq!(p.secs_or("--step", 3600), Ok(3600));
        assert!(!p.has("--list") && p.required("--tsdb") == "d");
    }

    #[test]
    fn typed_values_parse_or_name_their_grammar() {
        let replay = command("replay");
        let args = strings(&["--tasks", "2000", "--model", "bogus", "--canonical"]);
        let p = parse(replay, &args).expect("declared flags");
        assert_eq!(p.cmd.name, "replay");
        assert_eq!(p.parse_or("--tasks", 100_000usize), Ok(2000));
        assert_eq!(p.parse_or("--drivers", 450usize), Ok(450));
        assert!(p.has("--canonical") && !p.has("--quiet-table"));
        let bad = p.bad("--model");
        assert_eq!(
            bad.to_string(),
            "replay: bad --model 'bogus' (expected hitch|hwh)"
        );
        assert!(p.parse_or::<u64>("--model", 0).is_err());

        let orchestrate = command("orchestrate");
        for (text, secs) in [
            ("90", 90),
            ("90s", 90),
            ("30m", 1800),
            ("2h", 7200),
            ("1d", 86_400),
        ] {
            let args = strings(&["--spool", "s", "--timeout", text]);
            assert_eq!(
                parse(orchestrate, &args)
                    .expect(text)
                    .secs_or("--timeout", 300),
                Ok(secs)
            );
        }
        for text in [
            "",
            "m",
            "5x",
            "1.5h",
            "99999999999999999999",
            "9223372036854775807d",
        ] {
            let args = strings(&["--spool", "s", "--timeout", text]);
            let p = parse(orchestrate, &args).expect("a value, however bad, is a value");
            let e = p.secs_or("--timeout", 300).expect_err(text);
            assert_eq!((e.cmd, e.flag.as_str()), ("orchestrate", "--timeout"));
            assert!(matches!(e.fault, Fault::BadValue { ref value, .. } if value == text));
        }

        // Minutes and hours are bounded where they are read: a multiply
        // that overflows `i64`, a span past 366 days and a count of zero
        // are bad values — not a wrapped window or an engine's panic.
        let serve = command("serve");
        for (hours, secs) in [
            ("1", Some(3600)),
            ("8784", Some(MAX_SPAN_SECS)),
            ("8785", None),
            ("0", None),
            ("-1", None),
            ("2562047788015216", None),
            ("1h", None),
        ] {
            let args = strings(&["--source", "s", "--day-hours", hours]);
            let p = parse(serve, &args).expect(hours);
            let read = p.span_or("--day-hours", 3600, 24, 1);
            assert_eq!(read, secs.ok_or(p.bad("--day-hours")), "{hours}");
            assert_eq!(p.span_or("--snapshot-mins", 60, 60, 1), Ok(3600));
        }
        let sweep = command("sweep");
        for (threads, count) in [("3", Some(3)), ("0", None), ("-2", None), ("two", None)] {
            let args = strings(&["--threads", threads]);
            let p = parse(sweep, &args).expect(threads);
            let bad = p.bad("--threads");
            assert_eq!(p.count("--threads"), count.map(Some).ok_or(bad));
        }
        let absent = parse(sweep, &[]).expect("no flags");
        assert_eq!(absent.count("--threads"), Ok(None));
    }

    #[test]
    #[should_panic(expected = "--shards is undeclared")]
    fn reading_an_undeclared_flag_is_a_bug() {
        let args = strings(&["--out", "d"]);
        let p = parse(command("generate"), &args).expect("valid");
        let _ = p.value("--shards");
    }
}
