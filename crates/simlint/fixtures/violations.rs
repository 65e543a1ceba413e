//! Deliberately-violating source for the CI negative smoke: `simlint`
//! must exit nonzero on this file. Never compiled — `fixtures/` is not a
//! source dir and the workspace walk skips it (see `config::SKIP_DIRS`).
// simlint: hot-path

fn hot(v: &[u8]) -> Vec<u8> {
    v.to_vec() // R5: hot-alloc (file carries the hot-path marker)
}

fn bad_suppression() -> Vec<u8> {
    Vec::new() // simlint: allow(hot-alloc)
    // ^ allow-syntax: an allow without a reason is itself an error and
    //   does not suppress the hot-alloc finding on its line.
}
