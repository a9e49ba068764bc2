//! The load generator for `serve-tcp`: framed events from a file into a
//! socket, either as fast as the socket accepts them (*blast*, closed
//! loop on socket back-pressure) or on a fixed schedule that does not
//! slow when the daemon does (*paced*, open loop).

use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use crate::stats::Histogram;

/// An open-loop send schedule: event `i` is due `i / rate` seconds after
/// `start`, whatever happened to the events before it.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub start: Instant,
    pub events_per_s: f64,
}

impl Schedule {
    /// Nanoseconds after `start` at which event `index` is due.
    pub fn due_ns(&self, index: u64) -> u64 {
        (index as f64 * 1e9 / self.events_per_s) as u64
    }

    pub fn due(&self, index: u64) -> Instant {
        self.start + Duration::from_nanos(self.due_ns(index))
    }

    /// How many events are due at or before `now` (0 before `start`).
    pub fn due_count(&self, now: Instant) -> u64 {
        match now.checked_duration_since(self.start) {
            None => 0,
            Some(since) => (since.as_secs_f64() * self.events_per_s) as u64 + 1,
        }
    }
}

/// Copies the whole frame file into the socket. The daemon's reads pace
/// it through TCP back-pressure.
pub fn blast(frames: &Path, addr: SocketAddr) -> io::Result<()> {
    let mut file = File::open(frames)?;
    let mut socket = TcpStream::connect(addr)?;
    io::copy(&mut file, &mut socket)?;
    socket.flush()
}

/// What a paced send did.
pub struct PacedReport {
    pub frames: u64,
    /// Per frame, how long after its due time its write began.
    pub late_ns: Histogram,
}

/// Sends the first `limit` frames of the file on `schedule`: whenever the
/// clock passes some frames' due times, exactly those frames go out in
/// one write. Closing the socket on a frame boundary is a clean end of
/// stream for the daemon.
pub fn paced(
    frames: &Path,
    addr: SocketAddr,
    schedule: Schedule,
    limit: u64,
) -> io::Result<PacedReport> {
    let mut file = BufReader::with_capacity(1 << 16, File::open(frames)?);
    let mut socket = TcpStream::connect(addr)?;
    socket.set_nodelay(true)?;
    let mut late_ns = Histogram::new();
    let mut batch = Vec::with_capacity(1 << 16);
    let mut sent = 0u64;
    let mut limit = limit;
    while sent < limit {
        let now = Instant::now();
        let due = schedule.due_count(now).min(limit);
        if due <= sent {
            let wait = schedule.due(sent).saturating_duration_since(now);
            // Sleep through long gaps, spin through the last stretch: a
            // sleep alone overshoots by the timer slack.
            if wait > Duration::from_micros(200) {
                std::thread::sleep(wait - Duration::from_micros(100));
            } else {
                std::hint::spin_loop();
            }
            continue;
        }
        batch.clear();
        let first = sent;
        while sent < due {
            if !read_frame(&mut file, &mut batch)? {
                // File shorter than `limit`: this batch is the last.
                limit = sent;
                break;
            }
            sent += 1;
        }
        socket.write_all(&batch)?;
        record_lateness(&mut late_ns, &schedule, first, sent, now);
    }
    Ok(PacedReport {
        frames: sent,
        late_ns,
    })
}

fn record_lateness(
    late: &mut Histogram,
    schedule: &Schedule,
    from: u64,
    to: u64,
    sent_at: Instant,
) {
    for index in from..to {
        late.record(
            sent_at
                .saturating_duration_since(schedule.due(index))
                .as_nanos() as u64,
        );
    }
}

/// Appends the next `u32`-length-prefixed frame to `out`; `false` at a
/// clean end of file.
fn read_frame(file: &mut impl Read, out: &mut Vec<u8>) -> io::Result<bool> {
    let mut prefix = [0u8; 4];
    match file.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(false),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > rideshare_trace::wire::MAX_FRAME_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame body of {len} bytes in the benchmark's own frame file"),
        ));
    }
    out.extend_from_slice(&prefix);
    let at = out.len();
    out.resize(at + len, 0);
    file.read_exact(&mut out[at..])?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_depend_only_on_the_index() {
        let schedule = Schedule {
            start: Instant::now(),
            events_per_s: 400_000.0,
        };
        // 2.5 µs apart, regardless of when anything was actually sent.
        assert_eq!(schedule.due_ns(0), 0);
        assert_eq!(schedule.due_ns(1), 2_500);
        assert_eq!(schedule.due_ns(400_000), 1_000_000_000);
        // A stalled sender does not move later due times: asking again
        // after a delay gives the same answers.
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(schedule.due_ns(1), 2_500);
        assert_eq!(
            schedule.due(800_000) - schedule.due(400_000),
            Duration::from_secs(1)
        );
    }

    #[test]
    fn due_count_catches_up_after_a_stall() {
        let start = Instant::now();
        let schedule = Schedule {
            start,
            events_per_s: 1000.0,
        };
        assert_eq!(schedule.due_count(start), 1, "event 0 is due at start");
        // After a 10 ms stall eleven events (0..=10) are due at once: the
        // generator owes them all, it does not stretch the schedule.
        assert_eq!(schedule.due_count(start + Duration::from_millis(10)), 11);
        assert_eq!(schedule.due_count(start - Duration::from_millis(1)), 0);
    }

    #[test]
    fn frames_are_read_whole() {
        let mut bytes = Vec::new();
        for body in [&b"abc"[..], &b""[..], &b"defgh"[..]] {
            bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
            bytes.extend_from_slice(body);
        }
        let mut cursor = io::Cursor::new(bytes.clone());
        let mut out = Vec::new();
        let mut frames = 0;
        while read_frame(&mut cursor, &mut out).unwrap() {
            frames += 1;
        }
        assert_eq!(frames, 3);
        assert_eq!(out, bytes);
    }
}
