//! The `experiments` binary's argument handling.

use std::process::Command;

#[test]
fn unknown_experiment_names_exit_with_code_2_and_list_the_known_ones() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["table2", "bench8"])
        .output()
        .expect("experiments binary runs");
    assert_eq!(out.status.code(), Some(2));
    // Nothing ran: the check precedes every experiment.
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bench8"), "{stderr}");
    assert!(
        stderr.contains("fig7") && stderr.contains("trace"),
        "{stderr}"
    );
}
