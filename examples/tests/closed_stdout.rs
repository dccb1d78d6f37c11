//! A reader that stops early (`perflow-cli … | head -1`) must end
//! `perflow-cli` quietly: exit 0 and no panic message.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_perflow_cli_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_perflow-cli"))
        .args(["zeusmp", "--paradigm", "scalability"])
        .args(["--ranks", "64", "--small-ranks", "8"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn perflow-cli");
    // The run banner comes before the reference run and the paradigm,
    // so the pipe closes while the report is still to be printed.
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read the first line");
    assert!(first.contains("ranks"), "{first}");
    let out = child.wait_with_output().expect("wait for perflow-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{}\n{stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
