#!/usr/bin/env bash
# Format, lint and self-test the perflab package. The root CI does not see
# this package (it is a workspace of its own), so run this after editing it.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --quiet
