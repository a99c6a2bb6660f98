//! Real-binary fault drills for distributed `repro all`.
//!
//! Both tests spawn the actual `ddsc` binary: a coordinator plus worker
//! processes, with SIGKILL landing (a) on a worker mid-cell and (b) on
//! the coordinator itself mid-run. The contract under both faults: the
//! run (or its `--resume`) exits 0 and the rendered `repro_all.txt` is
//! byte-identical to an undisturbed single-process run's.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ddsc_util::{JournalRecord, Json};

/// Small enough to keep the test fast, large enough that a three-worker
/// run is reliably mid-grid when the kill lands.
const LEN: &str = "30000";
const GRID_CELLS: usize = 30; // 6 benchmarks x 5 configs x 1 width

fn ddsc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ddsc"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ddsc-dist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn repro_args(dir: &Path) -> Vec<String> {
    [
        "--len",
        LEN,
        "--widths",
        "4",
        "--seed",
        "1996",
        "--trace-cache",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([dir.join("traces").to_str().unwrap().to_string()])
    .collect()
}

fn spawn_worker(port_file: &Path) -> Child {
    ddsc()
        .args(["worker", "--connect-file", port_file.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn worker")
}

fn journal_finished(path: &Path) -> usize {
    match ddsc_util::read_journal(path) {
        Ok(records) => records
            .iter()
            .filter(|r| matches!(r, JournalRecord::CellFinished { .. }))
            .count(),
        Err(_) => 0,
    }
}

fn wait_exit(child: &mut Child, what: &str, secs: u64) -> Option<i32> {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status.code();
        }
        assert!(Instant::now() < deadline, "{what} never exited");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A top-level number of a BENCH_dist.json document.
fn json_num(path: &Path, key: &str) -> f64 {
    let text = std::fs::read_to_string(path).expect("read BENCH_dist.json");
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    doc.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no number {key} in {}", path.display()))
}

fn reference_output(dir: &Path) -> Vec<u8> {
    let out = dir.join("ref.txt");
    let status = ddsc()
        .args(["repro", "all"])
        .args(repro_args(dir))
        .args(["--out", out.to_str().unwrap()])
        .stdout(Stdio::null())
        .status()
        .expect("run reference repro");
    assert_eq!(status.code(), Some(0), "reference run must exit 0");
    std::fs::read(out).unwrap()
}

#[test]
fn sigkilled_worker_mid_cell_still_merges_byte_identical() {
    let dir = tmpdir("worker-kill");
    let reference = reference_output(&dir);

    let run_dir = dir.join("run");
    let port_file = dir.join("port");
    let out = dir.join("dist.txt");
    let bench_json = dir.join("BENCH_dist.json");
    let mut coordinator = ddsc()
        .args(["coordinator", "--fresh"])
        .args(repro_args(&dir))
        .args(["--run-dir", run_dir.to_str().unwrap()])
        .args(["--dist-port-file", port_file.to_str().unwrap()])
        .args(["--dist-json", bench_json.to_str().unwrap()])
        .args(["--out", out.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn coordinator");
    let mut workers: Vec<Child> = (0..3).map(|_| spawn_worker(&port_file)).collect();

    // SIGKILL one worker once the journal shows real progress.
    let journal = run_dir.join("run_journal.bin");
    let deadline = Instant::now() + Duration::from_secs(120);
    while journal_finished(&journal) < 1 {
        assert!(Instant::now() < deadline, "no cell ever finished");
        std::thread::sleep(Duration::from_millis(10));
    }
    let finished_at_kill = journal_finished(&journal);
    workers[0].kill().expect("SIGKILL a worker");
    let _ = workers[0].wait();
    assert!(
        finished_at_kill < GRID_CELLS,
        "kill must land mid-run (finished {finished_at_kill})"
    );

    assert_eq!(
        wait_exit(&mut coordinator, "coordinator", 300),
        Some(0),
        "a worker SIGKILL must not degrade the run"
    );
    for w in &mut workers[1..] {
        assert_eq!(wait_exit(w, "surviving worker", 60), Some(0));
    }

    let dist = std::fs::read(&out).unwrap();
    assert_eq!(dist, reference, "merged output must be byte-identical");
    assert_eq!(json_num(&bench_json, "cells_quarantined") as u64, 0);
    assert_eq!(
        json_num(&bench_json, "cells_completed") as usize,
        json_num(&bench_json, "cells_total") as usize
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_coordinator_resumes_byte_identical_with_exit_0() {
    let dir = tmpdir("coord-kill");
    let reference = reference_output(&dir);

    // Phase 1: the coordinator aborts itself (exit 3, the injected
    // crash used by the PR 5 crash-consistency drills) after 5 merged
    // cells; the orphaned workers notice, retry with backoff, give up
    // and exit 0 on their own.
    let run_dir = dir.join("run");
    let port_file = dir.join("port");
    let mut coordinator = ddsc()
        .args(["coordinator", "--fresh", "--abort-after-cells", "5"])
        .args(repro_args(&dir))
        .args(["--run-dir", run_dir.to_str().unwrap()])
        .args(["--dist-port-file", port_file.to_str().unwrap()])
        .args(["--dist-json", dir.join("j1.json").to_str().unwrap()])
        .args(["--out", dir.join("p1.txt").to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn coordinator");
    let mut workers: Vec<Child> = (0..2).map(|_| spawn_worker(&port_file)).collect();
    assert_eq!(
        wait_exit(&mut coordinator, "aborting coordinator", 300),
        Some(3),
        "--abort-after-cells must kill the coordinator mid-run"
    );
    for w in &mut workers {
        assert_eq!(wait_exit(w, "orphaned worker", 60), Some(0));
    }
    let finished = journal_finished(&run_dir.join("run_journal.bin"));
    assert!(
        (1..GRID_CELLS).contains(&finished),
        "the crash must land mid-grid, journal shows {finished}"
    );

    // Phase 2: --resume on the same run directory restores the
    // journaled cells and dispatches only the remainder.
    let port_file2 = dir.join("port2");
    let out = dir.join("dist.txt");
    let bench_json = dir.join("BENCH_dist.json");
    let mut coordinator = ddsc()
        .args(["coordinator", "--resume"])
        .args(repro_args(&dir))
        .args(["--run-dir", run_dir.to_str().unwrap()])
        .args(["--dist-port-file", port_file2.to_str().unwrap()])
        .args(["--dist-json", bench_json.to_str().unwrap()])
        .args(["--out", out.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("respawn coordinator");
    let mut workers: Vec<Child> = (0..2).map(|_| spawn_worker(&port_file2)).collect();
    assert_eq!(
        wait_exit(&mut coordinator, "resumed coordinator", 300),
        Some(0),
        "the resumed run must complete cleanly"
    );
    for w in &mut workers {
        assert_eq!(wait_exit(w, "worker", 60), Some(0));
    }

    let dist = std::fs::read(&out).unwrap();
    assert_eq!(dist, reference, "resumed output must be byte-identical");
    let redispatch_grid = json_num(&bench_json, "cells_total") as usize;
    assert_eq!(
        redispatch_grid,
        GRID_CELLS - finished,
        "the resume must dispatch exactly the missing cells"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_width_0_distributed_run_exits_1_within_seconds() {
    use std::io::Read as _;

    let dir = tmpdir("width-0");
    let mut child = ddsc()
        .args(["repro", "all", "--len", "2000", "--widths", "0"])
        .args(["--no-trace-cache", "--distributed", "2", "--dist-json"])
        .arg(dir.join("BENCH_dist.json"))
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn coordinator");
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => break Some(status),
            None if Instant::now() >= deadline => break None,
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    if status.is_none() {
        let _ = child.kill();
        let _ = child.wait();
    }
    assert_eq!(
        status.and_then(|s| s.code()),
        Some(1),
        "a width of 0 must exit 1 within 20 s"
    );
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(stderr.contains("issue width 0"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
