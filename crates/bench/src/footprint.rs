//! The §V-B footprint: source lines of the microkernel crate, split into
//! the paper's kernel and this reproduction's extensions, plus the size
//! of the uC/OS-II paravirtualization patch.
//!
//! A code line is a line that is neither blank nor a `//` comment and
//! lies outside every `#[cfg(test)] mod … { }` block. Paths resolve from
//! this crate's manifest directory, so the count does not depend on the
//! working directory.

use std::io;
use std::path::{Path, PathBuf};

/// The paper's kernel, as paths under `crates/core/src` (a directory
/// counts every `.rs` file below it): kernel objects, memory, scheduler,
/// vGIC, vtimer, IPC, hypercalls, the Hardware Task Manager's routine and
/// tables.
const PAPER_KERNEL: &[&str] = &[
    "kobj",
    "mem",
    "sched",
    "vgic.rs",
    "vtimer.rs",
    "ipc.rs",
    "hypercall.rs",
    "kernel.rs",
    "vmenv.rs",
    "stats.rs",
    "lib.rs",
    "hwmgr/mod.rs",
    "hwmgr/service.rs",
    "hwmgr/tables.rs",
    "hwmgr/irqalloc.rs",
];

/// What this reproduction adds to the paper's kernel: supervision, the
/// shared-ring queues, observability, SLOs, post-mortems, the MIR guest
/// runner and the bare-metal baseline.
const EXTENSIONS: &[&str] = &[
    "supervisor.rs",
    "hwmgr/ring.rs",
    "obs.rs",
    "slo.rs",
    "postmortem.rs",
    "mirguest.rs",
    "native.rs",
];

/// Code lines per row of the footprint table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Lines of the paper's kernel.
    pub paper_kernel: usize,
    /// Lines of this reproduction's extensions.
    pub extensions: usize,
    /// Lines of the uC/OS-II port (`crates/ucos/src/port.rs`).
    pub patch: usize,
}

/// `crates/core/src`, resolved from this crate's manifest directory.
fn core_src() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src")
}

/// Count the footprint. Fails when a directory or file cannot be read, or
/// when a `.rs` file under `crates/core/src` belongs to no row.
pub fn measure() -> io::Result<Footprint> {
    let root = core_src();
    let mut fp = Footprint::default();
    for file in rust_files(&root)? {
        let rel = file.strip_prefix(&root).expect("walked from root");
        let n = code_lines(&read(&file)?);
        if matches_any(rel, PAPER_KERNEL) {
            fp.paper_kernel += n;
        } else if matches_any(rel, EXTENSIONS) {
            fp.extensions += n;
        } else {
            return Err(io::Error::other(format!(
                "{} is in no footprint row",
                file.display()
            )));
        }
    }
    let port = Path::new(env!("CARGO_MANIFEST_DIR")).join("../ucos/src/port.rs");
    fp.patch = code_lines(&read(&port)?);
    Ok(fp)
}

fn read(path: &Path) -> io::Result<String> {
    std::fs::read_to_string(path)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
}

/// Every `.rs` file below `dir`, sorted.
fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", dir.display())))?;
    for e in entries {
        let p = e?.path();
        if p.is_dir() {
            out.extend(rust_files(&p)?);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    out.sort();
    Ok(out)
}

/// True when `rel` is one of `entries` or lies below one of them.
fn matches_any(rel: &Path, entries: &[&str]) -> bool {
    entries.iter().any(|e| rel.starts_with(e))
}

/// Lines of `src` that are not blank, not `//` comments and not inside a
/// `#[cfg(test)] mod … { }` block. A block ends at the first `}` line with
/// the `mod` line's indentation (rustfmt layout).
fn code_lines(src: &str) -> usize {
    let mut lines = src.lines().peekable();
    let mut n = 0;
    while let Some(line) = lines.next() {
        let t = line.trim();
        if t == "#[cfg(test)]" {
            if let Some(next) = lines.peek() {
                let m = next.trim_start();
                if (m.starts_with("mod ") || m.starts_with("pub mod ")) && m.ends_with('{') {
                    let close = format!("{}}}", &next[..next.len() - m.len()]);
                    lines.by_ref().find(|l| *l == close);
                    continue;
                }
            }
        }
        if !t.is_empty() && !t.starts_with("//") {
            n += 1;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_modules_and_comments_do_not_count() {
        let src = "\
//! crate doc
use std::io;

/// doc
pub fn f() -> u32 {
    // comment
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t() {
        assert_eq!(f(), 1);
    }
}
";
        assert_eq!(code_lines(src), 4, "use, fn, 1, closing brace");
    }

    #[test]
    fn every_core_file_is_in_exactly_one_row() {
        let root = core_src();
        let files = rust_files(&root).unwrap();
        assert!(files.len() > 20, "walked {}", root.display());
        for f in files {
            let rel = f.strip_prefix(&root).unwrap();
            let rows = PAPER_KERNEL
                .iter()
                .chain(EXTENSIONS)
                .filter(|e| rel.starts_with(e))
                .count();
            assert_eq!(rows, 1, "{} is in {rows} rows", rel.display());
        }
    }

    #[test]
    fn both_rows_and_the_patch_are_counted() {
        let fp = measure().unwrap();
        assert!(fp.paper_kernel > 0 && fp.extensions > 0 && fp.patch > 0);
    }
}
