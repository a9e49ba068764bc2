//! The environment block written into every result: numbers from one box
//! mean nothing on another, so each result says where it was measured.

use std::path::Path;

use crate::json::quote;

pub struct Environment {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: &'static str,
    pub git_commit: String,
}

fn first_line_of(path: impl AsRef<Path>) -> Option<String> {
    Some(
        std::fs::read_to_string(path)
            .ok()?
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// The commit of the checkout the benchmark was built in, read from
/// `.git` directly (a driver's checkout is not a repository: "unknown").
fn git_commit(repo: &Path) -> Option<String> {
    let head = first_line_of(repo.join(".git/HEAD"))?;
    match head.strip_prefix("ref: ") {
        Some(reference) => first_line_of(repo.join(".git").join(reference)),
        None => Some(head),
    }
}

impl Environment {
    pub fn capture() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Environment {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu_model,
            kernel: first_line_of("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
            rustc: env!("BENCH_RUSTC_VERSION"),
            git_commit: git_commit(&Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
                .unwrap_or_else(|| "unknown".into()),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"kernel\":{},\"rustc\":{},\"git_commit\":{}}}",
            self.nproc,
            quote(&self.cpu_model),
            quote(&self.kernel),
            quote(self.rustc),
            quote(&self.git_commit)
        )
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}
