//! Output digests of the simulator workloads.
//!
//! A digest folds every cell's simulated FPS, RTT and frame counts into
//! one FNV-1a hash. `digests.txt` pins the digest for the committed and
//! held-out seeds; for any other seed the first run records it in the
//! scratch directory and every later run must reproduce it.

use crate::Outcome;

/// Digests pinned with the benchmark: `workload seed hex` per line.
const PINNED: &str = include_str!("../digests.txt");

/// 64-bit FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty hash.
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    /// Folds one word in.
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The pinned digest of `workload` at `seed`, if any.
fn pinned(workload: &str, seed: u64) -> Option<u64> {
    PINNED.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Checks `digest` against the pinned value, or against (and else into)
/// the scratch-directory record for unpinned seeds.
pub fn check(out: &mut Outcome, workload: &str, seed: u64, digest: u64) {
    out.meta("digest", format!("{digest:016x}"));
    if let Some(want) = pinned(workload, seed) {
        out.meta("digest_source", "pinned");
        if want != digest {
            out.fail_check(format!(
                "digest {digest:016x} differs from the pinned {want:016x} for seed {seed}"
            ));
        }
        return;
    }
    let path = crate::host::scratch_dir().join(format!("digest-{workload}-{seed}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(s) => {
            out.meta("digest_source", "earlier run");
            if s.trim() != format!("{digest:016x}") {
                out.fail_check(format!(
                    "digest {digest:016x} differs from {} recorded by an earlier run",
                    s.trim()
                ));
            }
        }
        Err(_) => {
            out.meta("digest_source", "first run");
            std::fs::write(&path, format!("{digest:016x}\n")).expect("record the digest");
        }
    }
}
