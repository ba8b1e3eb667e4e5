//! A name-indexed catalog over every workload builder in this crate.
//!
//! The CLI, the request server, and the examples all need "model name →
//! graph" resolution with identical spellings and identical builder
//! arguments; keeping the mapping here means a new workload becomes
//! servable everywhere by editing one match.

use dlperf_graph::Graph;

use crate::cv;
use crate::dlrm::DlrmConfig;
use crate::rm_zoo::{dcn, wide_deep, RmConfig};
use crate::transformer::TransformerConfig;

/// Every model name [`build`] resolves, in display order.
pub const MODEL_NAMES: [&str; 9] = [
    "dlrm-default",
    "dlrm-mlperf",
    "dlrm-ddp",
    "dlrm-default-infer",
    "dcn",
    "wide-deep",
    "resnet50",
    "inception",
    "transformer",
];

/// Builds the named workload at `batch`.
///
/// # Errors
/// An error message naming the valid spellings when `name` is unknown.
pub fn build(name: &str, batch: u64) -> Result<Graph, String> {
    Ok(match name {
        "dlrm-default" => DlrmConfig::default_config(batch).build(),
        "dlrm-mlperf" => DlrmConfig::mlperf_config(batch).build(),
        "dlrm-ddp" => DlrmConfig::ddp_config(batch).build(),
        "dlrm-default-infer" => DlrmConfig::default_config(batch).build_inference(),
        "dcn" => dcn(&RmConfig::ctr_default(batch)),
        "wide-deep" => wide_deep(&RmConfig::ctr_default(batch)),
        "resnet50" => cv::resnet50(batch),
        "inception" => cv::inception_v3(batch),
        "transformer" => TransformerConfig::base(batch).build(),
        other => {
            return Err(format!(
                "unknown model `{other}` (expected {})",
                MODEL_NAMES.join("|")
            ))
        }
    })
}

/// The [`DlrmConfig`] behind a DLRM catalog entry at `batch`, for tools
/// that need the table/MLP configuration rather than the built graph
/// (e.g. sharding-plan enumeration). `None` for non-DLRM models.
pub fn dlrm_config(name: &str, batch: u64) -> Option<DlrmConfig> {
    match name {
        "dlrm-default" | "dlrm-default-infer" => Some(DlrmConfig::default_config(batch)),
        "dlrm-mlperf" => Some(DlrmConfig::mlperf_config(batch)),
        "dlrm-ddp" => Some(DlrmConfig::ddp_config(batch)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalog_name_builds_and_validates() {
        for name in MODEL_NAMES {
            let g = build(name, 128).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(g.validate().is_ok(), "{name} must validate");
            assert!(g.node_count() > 0);
        }
    }

    #[test]
    fn unknown_name_lists_the_catalog() {
        let err = build("alexnet", 128).unwrap_err();
        assert!(
            err.contains("alexnet") && err.contains("dlrm-default"),
            "{err}"
        );
    }

    #[test]
    fn dlrm_configs_cover_exactly_the_dlrm_entries() {
        let with_config: Vec<&str> = MODEL_NAMES
            .iter()
            .copied()
            .filter(|n| dlrm_config(n, 64).is_some())
            .collect();
        assert_eq!(
            with_config,
            [
                "dlrm-default",
                "dlrm-mlperf",
                "dlrm-ddp",
                "dlrm-default-infer"
            ]
        );
        assert_eq!(dlrm_config("dlrm-mlperf", 64).unwrap().batch_size, 64);
    }
}
