//! `proto.lock` pins the wire and persistence schema: every enum's tag
//! table, every struct's field order, every newtype. The WAL and snapshot
//! files on a head's disk were written by earlier builds, so a reordered
//! field list or a renumbered tag must fail here, before it ships.
//!
//! Each `codec!` declaration states its own `proto.lock` lines as
//! `Codec::SCHEMA`. This test concatenates them for the shipping types,
//! in the file's order (enums, structs, newtypes, each by name), and
//! compares the result with the whole committed file, header included.
//! A type whose bytes travel must be on the list below.
//!
//! After a deliberate, migration-reviewed schema change, the failure
//! message prints the regenerated file: copy it over `proto.lock` and
//! commit it with the code change.

use joshua_core::payload::{Grant, JMutexState, Payload, ReplicaState};
use jrs_pbs::job::{Job, JobId, JobSpec, JobState, JobStatus};
use jrs_pbs::resources::{ComputeNode, NodeState};
use jrs_pbs::server::{CmdReply, MomReport, ServerCmd, ServerSnapshot};
use jrs_store::Codec;

const HEADER: &str = "\
# proto.lock — pinned wire/persistence schema (tests/schema_lock.rs).
# On-disk WAL and snapshot data was written by earlier builds; any
# drift from this manifest is a hard error. After a deliberate,
# migration-reviewed schema change, regenerate by copying the text
#   cargo test --test schema_lock
# prints on failure over this file, and commit the new manifest
# alongside the code change.

";

/// The manifest the declarations state today.
fn regenerated() -> String {
    [
        HEADER,
        CmdReply::SCHEMA,
        JobState::SCHEMA,
        MomReport::SCHEMA,
        NodeState::SCHEMA,
        Payload::SCHEMA,
        ServerCmd::SCHEMA,
        ComputeNode::SCHEMA,
        Grant::SCHEMA,
        JMutexState::SCHEMA,
        Job::SCHEMA,
        JobSpec::SCHEMA,
        JobStatus::SCHEMA,
        ReplicaState::SCHEMA,
        ServerSnapshot::SCHEMA,
        JobId::SCHEMA,
    ]
    .concat()
}

/// `-`/`+` lines turning `old` into `new`, from a longest common
/// subsequence of their lines (the files are a few dozen lines).
fn line_diff(old: &str, new: &str) -> String {
    let (a, b): (Vec<&str>, Vec<&str>) = (old.lines().collect(), new.lines().collect());
    // lcs[i][j]: common lines of a[i..] and b[j..].
    let mut lcs = vec![vec![0usize; b.len() + 1]; a.len() + 1];
    for i in (0..a.len()).rev() {
        for j in (0..b.len()).rev() {
            lcs[i][j] = if a[i] == b[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    let (mut i, mut j, mut out) = (0, 0, String::new());
    while i < a.len() || j < b.len() {
        if i < a.len() && j < b.len() && a[i] == b[j] {
            (i, j) = (i + 1, j + 1);
        } else if i < a.len() && (j == b.len() || lcs[i + 1][j] >= lcs[i][j + 1]) {
            out += &format!("-{}\n", a[i]);
            i += 1;
        } else {
            out += &format!("+{}\n", b[j]);
            j += 1;
        }
    }
    out
}

#[test]
fn proto_lock_matches_the_codec_declarations() {
    let committed = include_str!("../proto.lock");
    let regenerated = regenerated();
    assert!(
        committed == regenerated,
        "proto.lock differs from the codec! declarations (- committed, + declared):\n{}\n\
         If the change is deliberate and old WAL and snapshot records stay readable, \
         this is the new proto.lock:\n{regenerated}",
        line_diff(committed, &regenerated),
    );
}

#[test]
fn line_diff_marks_a_swap_and_a_retag() {
    let old = "enum E {\n  A = 0\n  B = 1\n}\nstruct S { a, b }\n";
    let new = "enum E {\n  A = 0\n  B = 9\n}\nstruct S { b, a }\n";
    assert_eq!(
        line_diff(old, new),
        "-  B = 1\n+  B = 9\n-struct S { a, b }\n+struct S { b, a }\n"
    );
    assert_eq!(line_diff(old, old), "");
}
