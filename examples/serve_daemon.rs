//! The serve daemon: the paper's online market (§II, Alg. 4) run as a
//! **long-lived process** — orders arrive over a real TCP socket as
//! length-prefixed wire frames, dispatch decisions happen live, hourly
//! metrics snapshots fire at window boundaries, and the drained daemon is
//! proven **byte-identical** to an offline replay of the same trace.
//!
//! The workflow, end to end:
//!
//! 1. a producer thread prices one synthetic Porto day with the lazy
//!    pipeline (`TraceConfig::stream` → `priced_events`) and frames every
//!    event onto a loopback socket (`encode_frame`, u32-length-prefixed),
//! 2. `ServeDaemon` ingests from a [`TcpSource`], partitions 4 regions
//!    onto 2 shards, dispatches through maxMargin, and invokes the
//!    snapshot hook once per closed hour,
//! 3. the same trace replays in process through `replay_stream` — the
//!    oracle — and the run asserts exact `StreamMetrics` equality:
//!    ingestion is a transport, not a different dispatcher.
//!
//! Run with: `cargo run --release --example serve_daemon`

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};

use rideshare::online::{event_to_wire, ServeStop};
use rideshare::prelude::*;
use rideshare::trace::wire::{encode_frame, WireEvent};

fn main() {
    // 1. One synthetic day: 20 000 orders, 150 commuters, 4 regions (so a
    //    2-shard daemon has a legal region partition). Nothing runs yet.
    let config = TraceConfig::porto()
        .with_seed(18)
        .with_task_count(20_000)
        .with_driver_count(150, DriverModel::Hitchhiking)
        .with_regions(4);
    let build = MarketBuildOptions {
        surge_window: Some(TimeDelta::from_mins(30)),
        ..MarketBuildOptions::default()
    };

    // 2. The oracle: the same trace, priced and replayed entirely in
    //    process. This is what the daemon must reproduce exactly.
    let stream = config.stream();
    let speed = stream.speed();
    let bbox = stream.bounding_box();
    let options = StreamOptions::default().grid(bbox);
    let events: Vec<StreamEvent> = priced_events(stream, &build).collect();
    let mut mm = MaxMargin::new();
    let mut policy = StreamPolicy::Instant(&mut mm);
    let mut want = StreamMetrics::hourly();
    let want_summary = replay_stream(
        speed,
        events.iter().copied(),
        &mut policy,
        options,
        &mut want,
    );
    println!(
        "oracle replay: served {}/{} ({:.1}%), revenue {:.2}",
        want_summary.served,
        want_summary.tasks,
        want.service_rate() * 100.0,
        want.revenue(),
    );

    // 3. The producer: frame every event (plus an end-of-stream marker)
    //    onto a loopback TCP connection, exactly as a remote feed would.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let feed = events.clone();
    let producer = std::thread::spawn(move || {
        let conn = TcpStream::connect(addr).expect("connect to daemon");
        let mut out = std::io::BufWriter::new(conn);
        for event in &feed {
            out.write_all(&encode_frame(&event_to_wire(event))).unwrap();
        }
        out.write_all(&encode_frame(&WireEvent::Eos)).unwrap();
        out.flush().unwrap();
    });

    // 4. The daemon: ingest from the socket, 4 regions on 2 shards,
    //    journalled metrics, an hourly snapshot hook. `MetricsJournal`
    //    keeps a cumulative accumulator that must equal the oracle's.
    let (conn, peer) = listener.accept().expect("accept producer");
    println!("daemon: ingesting from {peer}");
    let partitioner = BoxPartitioner::new(config.region_boxes());
    let daemon = ServeDaemon::new(
        SpeedModel::urban(),
        ShardPolicySpec::MaxMargin,
        ServeConfig::new(2)
            .shard_options(ShardOptions::new(2).stream(options).validate(false))
            .snapshot_every(TimeDelta::from_hours(1)),
    )
    .with_partitioner(&partitioner);
    let mut journal = MetricsJournal::hourly();
    let mut source = TcpSource::from_stream(conn);
    let mut snapshots: Vec<String> = Vec::new();
    let outcome = daemon.run(
        &mut source,
        &mut journal,
        |point, journal: &mut MetricsJournal| {
            // In `rideshare serve` this JSON goes to --snapshot-dir.
            let json = journal.cumulative().to_canonical_json();
            snapshots.push(format!(
                "snap {:02} @ {}s: {} bytes",
                point.seq,
                point.at.as_secs(),
                json.len()
            ));
        },
        |_, _| {},
    );
    producer.join().expect("producer thread");
    let report = outcome.into_result().expect("clean drain");

    // 5. The daemon's own operational report.
    println!(
        "daemon: served {}/{}, {} event(s), {} window(s), {} snapshot(s), stop: {:?}",
        report.summary.served,
        report.summary.tasks,
        report.events,
        report.windows,
        report.snapshots,
        report.stop,
    );
    for line in snapshots.iter().take(3) {
        println!("  {line}");
    }
    if snapshots.len() > 3 {
        println!("  … {} more", snapshots.len() - 3);
    }

    // 6. The equivalence pin: a drained daemon IS a replay. Exact metrics
    //    equality, down to the fixed-point revenue accumulators.
    assert_eq!(report.stop, ServeStop::Drained);
    assert_eq!(report.summary.tasks, want_summary.tasks);
    assert_eq!(report.summary.served, want_summary.served);
    assert_eq!(journal.cumulative(), &want, "daemon diverged from replay");
    println!(
        "equivalence: daemon metrics == replay metrics (exact), snapshot schema {}",
        rideshare::metrics::SNAPSHOT_SCHEMA
    );
}
