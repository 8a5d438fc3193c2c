//! `dpq-ctl` checks its own arguments before it dials: an unknown flag or
//! command against a control socket that does not exist fails at once with
//! exit code 2, naming the bad word, and never reaches the connect retry.

use std::process::Command;

#[test]
fn unknown_flags_and_commands_fail_before_connecting() {
    let missing = std::env::temp_dir().join(format!("dpq-ctl-args-{}.ctl", std::process::id()));
    let ctl = format!("uds:{}", missing.display());
    let base = [
        "--proto", "skeap", "--n", "2", "--seed", "42", "--ctl", &ctl,
    ];
    for (args, bad) in [
        (&["--bogus", "status"][..], "--bogus"),
        (&["status", "--bogus"][..], "--bogus"),
        (&["frobnicate"][..], "frobnicate"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dpq-ctl"))
            .args(base)
            .args(args)
            .output()
            .expect("run dpq-ctl");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(bad), "{args:?} must name {bad}: {stderr}");
        assert!(
            !stderr.contains("connecting to"),
            "{args:?} dialed before checking its arguments: {stderr}"
        );
    }
}
