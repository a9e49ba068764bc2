//! Multi-day trace generation.
//!
//! The paper's dataset is a **year** of Porto activity; per-day markets are
//! solved independently ("each driver reveals her travel plan … everyday").
//! This module generates a sequence of day traces with realistic
//! day-to-day structure: weekday/weekend demand modulation, per-day RNG
//! streams derived from one master seed, and absolute timestamps offset by
//! the day index so a week can be replayed as one stream or day by day.

use rideshare_types::TimeDelta;

use crate::{Trace, TraceConfig};

/// Relative demand by weekday (Mon..Sun): weekdays flat, Friday busier,
/// Saturday busiest, Sunday quietest — the canonical urban taxi pattern.
const WEEKDAY_DEMAND: [f64; 7] = [1.0, 0.97, 0.98, 1.02, 1.18, 1.25, 0.78];

/// A generated multi-day horizon.
#[derive(Clone, Debug)]
pub struct MultiDayTrace {
    /// One trace per day, timestamps offset by `day × 24 h`.
    pub days: Vec<Trace>,
}

impl MultiDayTrace {
    /// Flattens all days into a single publish-ordered trace (driver lists
    /// are taken from day 0 — cross-day replay reuses the same fleet).
    ///
    /// Returns `None` for an empty horizon.
    #[must_use]
    pub fn flattened(&self) -> Option<Trace> {
        let first = self.days.first()?;
        let mut all = first.clone();
        for day in &self.days[1..] {
            all.trips.extend(day.trips.iter().copied());
        }
        all.trips.sort_by_key(|t| t.publish_time);
        for (i, t) in all.trips.iter_mut().enumerate() {
            t.id = rideshare_types::TaskId::new(i as u32);
        }
        Some(all)
    }
}

/// Generates `num_days` consecutive days from `base` starting on a Monday.
///
/// Each day `d` uses seed `base.seed + d` (independent randomness), scales
/// its task count by the weekday factor, and offsets all timestamps by
/// `d × 24 h`.
///
/// # Examples
///
/// ```
/// use rideshare_trace::{generate_days, DriverModel, TraceConfig};
///
/// let week = generate_days(
///     &TraceConfig::porto()
///         .with_seed(30)
///         .with_task_count(100)
///         .with_driver_count(10, DriverModel::Hitchhiking),
///     7,
/// );
/// assert_eq!(week.days.len(), 7);
/// // Saturday (index 5) out-demands Sunday (index 6).
/// assert!(week.days[5].trips.len() > week.days[6].trips.len());
/// ```
#[must_use]
pub fn generate_days(base: &TraceConfig, num_days: usize) -> MultiDayTrace {
    let base_tasks = base.task_count();
    let days = (0..num_days)
        .map(|d| {
            let weekday = d % 7;
            let tasks = ((base_tasks as f64) * WEEKDAY_DEMAND[weekday])
                .round()
                .max(0.0) as usize;
            let mut day = base
                .clone()
                .with_seed(base.seed().wrapping_add(d as u64))
                .with_task_count(tasks)
                .generate();
            let offset = TimeDelta::from_hours(24 * d as i64);
            for t in &mut day.trips {
                t.publish_time += offset;
                t.pickup_deadline += offset;
                t.completion_deadline += offset;
            }
            for drv in &mut day.drivers {
                drv.shift_start += offset;
                drv.shift_end += offset;
            }
            day
        })
        .collect();
    MultiDayTrace { days }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DriverModel;

    fn base() -> TraceConfig {
        TraceConfig::porto()
            .with_seed(123)
            .with_task_count(120)
            .with_driver_count(8, DriverModel::Hitchhiking)
    }

    #[test]
    fn week_structure() {
        let week = generate_days(&base(), 7);
        assert_eq!(week.days.len(), 7);
        let counts: Vec<usize> = week.days.iter().map(|d| d.trips.len()).collect();
        // Friday (4) and Saturday (5) above Monday; Sunday below.
        assert!(counts[4] > counts[0]);
        assert!(counts[5] > counts[0]);
        assert!(counts[6] < counts[0]);
    }

    #[test]
    fn days_offset_and_valid() {
        let two = generate_days(&base(), 2);
        for (d, day) in two.days.iter().enumerate() {
            let lo = 24 * 3600 * d as i64 - 3600; // publish may precede 0h slightly
            let hi = 24 * 3600 * (d as i64 + 1);
            for t in &day.trips {
                t.validate().unwrap();
                assert!(
                    t.pickup_deadline.as_secs() >= lo && t.pickup_deadline.as_secs() <= hi,
                    "day {d}: pickup {} outside [{lo}, {hi}]",
                    t.pickup_deadline
                );
            }
            for drv in &day.drivers {
                drv.validate().unwrap();
            }
        }
    }

    #[test]
    fn days_are_independent_draws() {
        let two = generate_days(&base(), 2);
        // Same weekday factor would give equal counts only by coincidence
        // of the rounding; the actual trips must differ.
        let a = &two.days[0].trips;
        let b = &two.days[1].trips;
        assert!(a.first().map(|t| t.origin) != b.first().map(|t| t.origin));
    }

    #[test]
    fn flattened_is_publish_sorted_and_renumbered() {
        let week = generate_days(&base(), 3);
        let flat = week.flattened().expect("non-empty");
        let per_day = week.days.iter().map(|d| d.trips.len());
        assert_eq!(flat.trips.len(), per_day.sum::<usize>());
        assert!(flat
            .trips
            .windows(2)
            .all(|w| w[0].publish_time <= w[1].publish_time));
        for (i, t) in flat.trips.iter().enumerate() {
            assert_eq!(t.id.index(), i);
        }
    }

    #[test]
    fn empty_horizon() {
        let none = generate_days(&base(), 0);
        assert!(none.days.is_empty());
        assert!(none.flattened().is_none());
    }
}
