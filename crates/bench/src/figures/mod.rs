//! The paper's figures (§VI) and the quality ablations, one function
//! each: what `rideshare fig2 … ablations` print. Every function writes
//! its tables to the `out` it is handed and returns that writer's first
//! error; arguments arrive typed — the CLI's flag table is the only place
//! they are read from a command line.

use crate::PolicySpec;

mod ablations;
mod fig2;
mod fig3_4;
mod fig5;
mod fig6_9;
mod small_scale;

pub use ablations::ablations;
pub use fig2::fig2;
pub use fig3_4::fig3_4;
pub use fig5::fig5;
pub use fig6_9::fig6_9;
pub use small_scale::small_scale;

/// The paper's three algorithms, in legend order.
const ALGORITHMS: [(&str, PolicySpec); 3] = [
    ("Greedy", PolicySpec::Greedy),
    ("maxMargin", PolicySpec::MaxMargin),
    ("Nearest", PolicySpec::Nearest),
];

/// The driver counts swept by Figs. 5–9 ("gradually increasing the number
/// of drivers available in the market from 20 to 300").
const DRIVER_SWEEP: [usize; 8] = [20, 40, 60, 100, 150, 200, 250, 300];

/// The paper's task-count setting: "We select 1000 records during one day".
const PAPER_TASK_COUNT: usize = 1000;

/// Orders per point and the driver sweep of Figs. 5–9: the paper's, or
/// the smoke-test shape under `quick`; `tasks` overrides the count.
fn sweep_shape(tasks: Option<usize>, quick: bool) -> (usize, &'static [usize]) {
    if quick {
        (tasks.unwrap_or(200), &[20, 60, 150])
    } else {
        (tasks.unwrap_or(PAPER_TASK_COUNT), &DRIVER_SWEEP)
    }
}
