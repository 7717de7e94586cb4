//! Reads the committed `BENCH_*.json` kRPS ledgers, so a model retune
//! edits one number in one place and the exact-value tests follow it.

/// The `"krps"` value of row `name` in the ledger `file` at the
/// repository root, as written (one decimal place).
pub fn krps(file: &str, name: &str) -> String {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let row = text
        .lines()
        .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
        .unwrap_or_else(|| panic!("{file} has no row {name}"));
    let value = row
        .split("\"krps\": ")
        .nth(1)
        .unwrap_or_else(|| panic!("{file} row {name} has no krps"));
    value
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect()
}
