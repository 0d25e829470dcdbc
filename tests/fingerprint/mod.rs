//! Canonical rendering of a data-flow result, shared by the oracles that
//! compare one analysis with another.

use std::collections::{BTreeMap, HashMap};
use suif_analysis::ArrayDataFlow;

/// Every map of `df` with its entries sorted by id (`HashMap` iteration
/// order differs from run to run).
pub fn df_fingerprint(df: &ArrayDataFlow) -> String {
    fn sorted<K: Copy + Ord, V: std::fmt::Debug>(m: &HashMap<K, V>) -> BTreeMap<K, String> {
        m.iter().map(|(k, v)| (*k, format!("{v:?}"))).collect()
    }
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}",
        sorted(&df.proc_summary),
        sorted(&df.proc_fresh),
        sorted(&df.stmt_summary),
        sorted(&df.loop_iter),
        sorted(&df.loop_closed_plain),
    )
}
