//! A reader that stops early (`lazylocks list | head -1`) closes stdout
//! under the CLI; the subcommand must then exit 0 without a panic. A
//! closed stderr must not change any exit code either: diagnostics that
//! nobody reads are dropped, not panicked over.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

/// Runs `lazylocks args`, reads one stdout line, closes the pipe and
/// requires a quiet exit 0.
fn read_one_line_then_close(args: &[&str]) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lazylocks"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning the lazylocks binary");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("captured stdout"))
        .read_line(&mut first)
        .expect("readable stdout");
    assert!(!first.is_empty(), "{args:?} printed nothing");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("captured stderr")
        .read_to_string(&mut stderr)
        .expect("readable stderr");
    let status = child.wait().expect("wait for lazylocks");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(status.success(), "{args:?} exited with {status}: {stderr}");
}

#[test]
fn a_closed_stdout_pipe_is_a_quiet_success() {
    // `compare` prints its header before exploring, so every later row
    // is written after the reader has gone.
    read_one_line_then_close(&["compare", "--bench", "coarse-mixed-t3", "--limit", "1000"]);
    read_one_line_then_close(&["list"]);
}

#[test]
fn a_closed_stderr_pipe_keeps_every_exit_code() {
    for (args, code) in [
        ("run --bench nope", 2),
        ("compare --bench coarse-mixed-t4 --limit 0", 2),
        ("run --help", 0),
        ("run --bench coarse-mixed-t4 --limit 5 --metrics", 0),
    ] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let status = Command::new(env!("CARGO_BIN_EXE_lazylocks"))
            .args(args.split(' '))
            .stdout(Stdio::null())
            .stderr(writer)
            .status()
            .expect("spawning the lazylocks binary");
        assert_eq!(status.code(), Some(code), "{args:?}");
    }
}
