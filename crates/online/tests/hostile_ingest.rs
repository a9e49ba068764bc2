//! Hostile-input regressions for the ingestion layer.
//!
//! The [`rideshare_online::IngestSource`] contract says a source must
//! never panic on hostile bytes — every transport or decode problem is a
//! typed [`IngestError`]. These tests feed each source the nastiest
//! inputs a producer (or attacker) can hand it and pin the error shape,
//! so a future `unwrap` sneaking into the path fails here before the
//! audit even runs.

use rideshare_geo::SpeedModel;
use rideshare_online::{
    CollectingSink, FileSource, IngestError, IngestFormat, IngestSource, ServeConfig, ServeDaemon,
    ServeStop, ShardPolicySpec, TcpSource,
};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

/// A unique temp file seeded with `bytes`, cleaned up on drop.
struct TempEvents(PathBuf);

impl TempEvents {
    fn new(tag: &str, bytes: &[u8]) -> Self {
        let path = std::env::temp_dir().join(format!(
            "rideshare-hostile-{tag}-{}.events",
            std::process::id()
        ));
        std::fs::write(&path, bytes).unwrap();
        Self(path)
    }
}

impl Drop for TempEvents {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn drain(mut src: impl IngestSource) -> Result<usize, IngestError> {
    let mut n = 0;
    while src.next_event()?.is_some() {
        n += 1;
    }
    Ok(n)
}

#[test]
fn invalid_utf8_file_is_an_io_error_not_a_panic() {
    let junk = TempEvents::new("utf8", &[0xff, 0xfe, 0x80, b'\n', 0xc3, 0x28, b'\n']);
    for format in [IngestFormat::Jsonl, IngestFormat::Csv] {
        let src = FileSource::open(&junk.0, format).unwrap();
        match drain(src) {
            Err(IngestError::Io(_)) => {}
            other => panic!("expected Io error on invalid UTF-8, got {other:?}"),
        }
    }
}

#[test]
fn garbage_jsonl_is_malformed_with_line_number() {
    // A blank line first: it is skipped but still counted, so the
    // diagnostic points at the file's real line 2.
    let junk = TempEvents::new("jsonl", b"\n{\"kind\":\"nonsense\"}\n");
    let src = FileSource::open(&junk.0, IngestFormat::Jsonl).unwrap();
    match drain(src) {
        Err(IngestError::Malformed { line, .. }) => assert_eq!(line, 2),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn truncated_json_object_is_malformed() {
    // A real event line cut mid-object — the classic torn tail write.
    let junk = TempEvents::new("torn", b"{\"kind\":\"epoch_tick\",\"t\":36\n");
    let src = FileSource::open(&junk.0, IngestFormat::Jsonl).unwrap();
    assert!(matches!(
        drain(src),
        Err(IngestError::Malformed { line: 1, .. })
    ));
}

#[test]
fn deeply_nested_line_is_malformed_and_the_daemon_drains() {
    // 60 kB of `[` after one good event. The parser used to recurse once
    // per bracket and abort the whole process on a stack overflow; the
    // nesting bound makes it a typed error like any other bad line.
    let mut bytes = b"{\"event\":\"tick\",\"at\":60}\n".to_vec();
    bytes.resize(bytes.len() + 60_000, b'[');
    bytes.push(b'\n');
    let junk = TempEvents::new("deep", &bytes);
    let mut src = FileSource::open(&junk.0, IngestFormat::Jsonl).unwrap();
    let daemon = ServeDaemon::new(
        SpeedModel::default(),
        ShardPolicySpec::MaxMargin,
        ServeConfig::new(1),
    );
    let outcome = daemon.run(&mut src, &mut CollectingSink::new(), |_, _| {}, |_, _| {});
    assert!(
        matches!(outcome.error, Some(IngestError::Malformed { line: 2, .. })),
        "expected Malformed at line 2, got {:?}",
        outcome.error
    );
    assert_eq!(outcome.report.stop, ServeStop::Error);
    assert_eq!(outcome.report.events, 1, "the good line before it drained");
}

#[test]
fn garbage_csv_is_malformed() {
    let junk = TempEvents::new("csv", b"x,y,z,w\n");
    let src = FileSource::open(&junk.0, IngestFormat::Csv).unwrap();
    assert!(matches!(drain(src), Err(IngestError::Malformed { .. })));
}

#[test]
fn empty_file_is_a_clean_end_of_stream() {
    let junk = TempEvents::new("empty", b"");
    let src = FileSource::open(&junk.0, IngestFormat::Jsonl).unwrap();
    assert_eq!(drain(src).unwrap(), 0);
}

#[test]
fn missing_file_is_an_io_error() {
    let path = std::env::temp_dir().join("rideshare-hostile-no-such-file.events");
    assert!(matches!(
        FileSource::open(&path, IngestFormat::Jsonl),
        Err(IngestError::Io(_))
    ));
}

/// Spawns a producer thread that writes `bytes` to a loopback socket and
/// returns the accepted server-side stream.
fn loopback(bytes: Vec<u8>) -> TcpStream {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&bytes).unwrap();
        // Dropping the stream closes the connection.
    });
    listener.accept().unwrap().0
}

#[test]
fn tcp_garbage_frame_is_a_typed_error_not_a_panic() {
    // A plausible length prefix followed by bytes that are not a frame.
    let mut bytes = 16u32.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0xde; 16]);
    let src = TcpSource::from_stream(loopback(bytes));
    match drain(src) {
        Err(IngestError::Frame(_)) => {}
        other => panic!("expected Frame error, got {other:?}"),
    }
}

#[test]
fn tcp_mid_frame_disconnect_reports_stranded_bytes() {
    // A prefix promising 64 bytes, then the producer vanishes after 3.
    let mut bytes = 64u32.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[1, 2, 3]);
    let src = TcpSource::from_stream(loopback(bytes));
    match drain(src) {
        Err(IngestError::Disconnected { pending_bytes }) => {
            assert_eq!(pending_bytes, 7, "4 prefix + 3 body bytes stranded");
        }
        other => panic!("expected Disconnected, got {other:?}"),
    }
}

#[test]
fn tcp_clean_close_on_frame_boundary_ends_stream() {
    let src = TcpSource::from_stream(loopback(Vec::new()));
    assert_eq!(drain(src).unwrap(), 0);
}
