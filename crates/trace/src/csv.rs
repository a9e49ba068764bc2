//! CSV import/export for traces.
//!
//! Hand-rolled (the values are all numeric, with no quoting or escaping
//! needs) so the workspace needs no CSV/serde dependency. The format is
//! stable and documented per function, making generated traces portable to
//! external plotting tools and back.

use rideshare_geo::GeoPoint;
use rideshare_types::{DriverId, TaskId, TimeDelta, Timestamp};

use crate::{Driver, DriverModel, TripRecord};

/// Header used by [`trips_to_csv`].
const TRIP_HEADER: &str =
    "id,publish_secs,origin_lat,origin_lon,dest_lat,dest_lon,pickup_secs,completion_secs,distance_km,duration_secs";

/// Header used by [`drivers_to_csv`].
const DRIVER_HEADER: &str =
    "id,source_lat,source_lon,dest_lat,dest_lon,shift_start_secs,shift_end_secs,model";

/// Serialises trips to CSV (header + one row per trip).
///
/// # Examples
///
/// ```
/// use rideshare_trace::{trips_from_csv, trips_to_csv, TraceConfig};
/// let trace = TraceConfig::porto().with_task_count(5).generate();
/// let csv = trips_to_csv(&trace.trips);
/// let back = trips_from_csv(&csv).unwrap();
/// assert_eq!(back.len(), 5);
/// ```
#[must_use]
pub fn trips_to_csv(trips: &[TripRecord]) -> String {
    let mut out = String::with_capacity(64 * (trips.len() + 1));
    out.push_str(TRIP_HEADER);
    out.push('\n');
    for t in trips {
        out.push_str(&format!(
            "{},{},{:.7},{:.7},{:.7},{:.7},{},{},{:.5},{}\n",
            t.id.raw(),
            t.publish_time.as_secs(),
            t.origin.lat(),
            t.origin.lon(),
            t.destination.lat(),
            t.destination.lon(),
            t.pickup_deadline.as_secs(),
            t.completion_deadline.as_secs(),
            t.distance_km,
            t.duration.as_secs(),
        ));
    }
    out
}

/// Parses the output of [`trips_to_csv`].
///
/// # Errors
///
/// Returns a human-readable description of the first malformed line.
pub fn trips_from_csv(csv: &str) -> Result<Vec<TripRecord>, String> {
    let mut lines = csv.lines();
    match lines.next() {
        Some(h) if h == TRIP_HEADER => {}
        other => return Err(format!("bad trip header: {other:?}")),
    }
    let mut out = Vec::new();
    for (ln, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 10 {
            return Err(format!(
                "line {}: expected 10 fields, got {}",
                ln + 2,
                f.len()
            ));
        }
        let err = |what: &str| format!("line {}: bad {what}", ln + 2);
        out.push(TripRecord {
            id: TaskId::new(f[0].parse().map_err(|_| err("id"))?),
            publish_time: Timestamp::from_secs(f[1].parse().map_err(|_| err("publish_secs"))?),
            origin: GeoPoint::new(
                f[2].parse().map_err(|_| err("origin_lat"))?,
                f[3].parse().map_err(|_| err("origin_lon"))?,
            ),
            destination: GeoPoint::new(
                f[4].parse().map_err(|_| err("dest_lat"))?,
                f[5].parse().map_err(|_| err("dest_lon"))?,
            ),
            pickup_deadline: Timestamp::from_secs(f[6].parse().map_err(|_| err("pickup_secs"))?),
            completion_deadline: Timestamp::from_secs(
                f[7].parse().map_err(|_| err("completion_secs"))?,
            ),
            distance_km: f[8].parse().map_err(|_| err("distance_km"))?,
            duration: TimeDelta::from_secs(f[9].parse().map_err(|_| err("duration_secs"))?),
        });
    }
    Ok(out)
}

/// Serialises driver shifts to CSV (header + one row per driver).
#[must_use]
pub fn drivers_to_csv(drivers: &[Driver]) -> String {
    let mut out = String::with_capacity(48 * (drivers.len() + 1));
    out.push_str(DRIVER_HEADER);
    out.push('\n');
    for d in drivers {
        out.push_str(&format!(
            "{},{:.7},{:.7},{:.7},{:.7},{},{},{}\n",
            d.id.raw(),
            d.source.lat(),
            d.source.lon(),
            d.destination.lat(),
            d.destination.lon(),
            d.shift_start.as_secs(),
            d.shift_end.as_secs(),
            match d.model {
                DriverModel::HomeWorkHome => "hwh",
                DriverModel::Hitchhiking => "hitch",
            },
        ));
    }
    out
}

/// Parses the output of [`drivers_to_csv`].
///
/// # Errors
///
/// Returns a human-readable description of the first malformed line.
pub fn drivers_from_csv(csv: &str) -> Result<Vec<Driver>, String> {
    let mut lines = csv.lines();
    match lines.next() {
        Some(h) if h == DRIVER_HEADER => {}
        other => return Err(format!("bad driver header: {other:?}")),
    }
    let mut out = Vec::new();
    for (ln, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 8 {
            return Err(format!(
                "line {}: expected 8 fields, got {}",
                ln + 2,
                f.len()
            ));
        }
        let err = |what: &str| format!("line {}: bad {what}", ln + 2);
        out.push(Driver {
            id: DriverId::new(f[0].parse().map_err(|_| err("id"))?),
            source: GeoPoint::new(
                f[1].parse().map_err(|_| err("source_lat"))?,
                f[2].parse().map_err(|_| err("source_lon"))?,
            ),
            destination: GeoPoint::new(
                f[3].parse().map_err(|_| err("dest_lat"))?,
                f[4].parse().map_err(|_| err("dest_lon"))?,
            ),
            shift_start: Timestamp::from_secs(f[5].parse().map_err(|_| err("shift_start_secs"))?),
            shift_end: Timestamp::from_secs(f[6].parse().map_err(|_| err("shift_end_secs"))?),
            model: match f[7].trim() {
                "hwh" => DriverModel::HomeWorkHome,
                "hitch" => DriverModel::Hitchhiking,
                other => return Err(format!("line {}: bad model {other:?}", ln + 2)),
            },
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceConfig;

    #[test]
    fn trip_round_trip() {
        let trace = TraceConfig::porto()
            .with_seed(1)
            .with_task_count(20)
            .generate();
        let csv = trips_to_csv(&trace.trips);
        let back = trips_from_csv(&csv).unwrap();
        assert_eq!(back.len(), trace.trips.len());
        for (a, b) in trace.trips.iter().zip(&back) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.publish_time, b.publish_time);
            assert_eq!(a.pickup_deadline, b.pickup_deadline);
            assert_eq!(a.completion_deadline, b.completion_deadline);
            assert_eq!(a.duration, b.duration);
            assert!((a.distance_km - b.distance_km).abs() < 1e-4);
            assert!(a.origin.haversine_km(b.origin) < 0.01);
        }
    }

    #[test]
    fn driver_round_trip_both_models() {
        for model in [DriverModel::HomeWorkHome, DriverModel::Hitchhiking] {
            let trace = TraceConfig::porto()
                .with_seed(2)
                .with_task_count(1)
                .with_driver_count(10, model)
                .generate();
            let csv = drivers_to_csv(&trace.drivers);
            let back = drivers_from_csv(&csv).unwrap();
            assert_eq!(back.len(), 10);
            for (a, b) in trace.drivers.iter().zip(&back) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.model, b.model);
                assert_eq!(a.shift_start, b.shift_start);
                assert_eq!(a.shift_end, b.shift_end);
            }
        }
    }

    #[test]
    fn rejects_bad_header() {
        assert!(trips_from_csv("nope\n1,2,3").is_err());
        assert!(drivers_from_csv("nope\n1,2,3").is_err());
    }

    #[test]
    fn rejects_malformed_rows() {
        let good = TraceConfig::porto()
            .with_seed(1)
            .with_task_count(1)
            .generate();
        let mut csv = trips_to_csv(&good.trips);
        csv.push_str("1,2,3\n");
        let e = trips_from_csv(&csv).unwrap_err();
        assert!(e.contains("expected 10 fields"), "{e}");

        let mut csv2 = drivers_to_csv(&good.drivers);
        csv2 = csv2.replace("hitch", "teleport");
        let e2 = drivers_from_csv(&csv2).unwrap_err();
        assert!(e2.contains("bad model"), "{e2}");
    }

    #[test]
    fn empty_lines_skipped() {
        let trace = TraceConfig::porto()
            .with_seed(4)
            .with_task_count(3)
            .generate();
        let mut csv = trips_to_csv(&trace.trips);
        csv.push('\n');
        assert_eq!(trips_from_csv(&csv).unwrap().len(), 3);
    }
}
