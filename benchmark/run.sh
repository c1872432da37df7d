#!/usr/bin/env bash
# Builds csbench and the csnoded daemon it spawns from source, then runs
# csbench with the given arguments. The benchmark package is a workspace of
# its own, so the repository's Cargo.toml and Cargo.lock are left alone;
# csnoded is built from crates/node's own sources through the dependency
# graph (`-p cs_node`). Both land in one target directory, where csbench
# finds csnoded next to itself.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" \
    -p csbench -p cs_node --bin csbench --bin csnoded
exec "$target/release/csbench" "$@"
