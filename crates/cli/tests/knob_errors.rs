//! A bad knob value on the command line is refused with the message the
//! knob table words, before anything runs: runtime knobs wrapped as an
//! invalid configuration, service knobs as they are.

use std::process::Command;

fn stderr_of_failed(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ramr")).args(args).output().expect("spawn ramr");
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing may print before the error");
    String::from_utf8(out.stderr).expect("utf-8 stderr")
}

#[test]
fn a_bad_runtime_knob_is_an_invalid_configuration() {
    let stderr = stderr_of_failed(&["run", "--app", "wc", "--batch", "many"]);
    assert_eq!(stderr, "error: invalid configuration: cannot parse --batch=many\n");
    let stderr = stderr_of_failed(&["run", "--app", "wc", "--pin", "maybe"]);
    assert_eq!(
        stderr,
        "error: invalid configuration: cannot parse --pin=maybe (expected 0|1|true|false|yes|no)\n"
    );
}

#[test]
fn a_bad_serve_knob_names_its_flag() {
    let stderr = stderr_of_failed(&["serve", "--serve-max-pools", "0"]);
    assert_eq!(stderr, "error: --serve-max-pools must be at least 1\n");
}
