//! The figure binaries refuse what they do not declare: exit 1, the
//! argument named on stderr above the usage line, nothing on stdout.

use std::process::Command;

#[test]
fn fig5_refuses_undeclared_arguments_by_name() {
    for (args, named) in [
        (&["--rounds", "5"][..], "--rounds"),
        (&["--quick", "--bogus"], "--bogus"),
        (&["--quick", "--model", "xyz"], "'xyz' for --model"),
        (&["--quick", "--model"], "--model needs a value"),
        (&["2000x"], "'2000x' for tasks"),
        (&["200", "300"], "'300'"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig5_performance_ratio"))
            .args(args)
            .output()
            .expect("spawn fig5_performance_ratio");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: fig5_performance_ratio [tasks] [--quick] [--model hitch|hwh]"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}
