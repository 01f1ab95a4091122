//! Access-link technology inference from reverse DNS names (§2.3.3).
//!
//! ISPs frequently encode the last-mile technology in PTR records. The
//! paper's classifier:
//!
//! 1. looks up the reverse name of every address in a block;
//! 2. string-matches each name against 16 keywords, *non-exclusively* (the
//!    name `dhcp-dialup-001.example.com` is both DHCP and dial-up);
//! 3. represents the block as a vector of 256 per-address feature sets;
//! 4. suppresses minor features with fewer than 1/15th of the most frequent
//!    feature's count;
//! 5. labels the block with every remaining non-zero feature.
//!
//! Seven of the 16 keywords (`rtr`, `gw`, `ded`, `client`, `sql`,
//! `wireless`, `wifi`) are dominant in fewer than 1000 blocks of the
//! paper's dataset and are discarded from the analysis; they are still
//! matched here so the dataset-level filtering decision stays visible.
//!
//! # Example
//!
//! ```
//! use sleepwatch_linktype::{classify_block, LinkFeature};
//!
//! let names: Vec<Option<String>> = (0..256)
//!     .map(|i| Some(format!("dhcp-dialup-{i:03}.example.com")))
//!     .collect();
//! let label = classify_block(names.iter().map(|n| n.as_deref()));
//! assert!(label.has(LinkFeature::Dhcp));
//! assert!(label.has(LinkFeature::Dial));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The 16 link-type keywords of §2.3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum LinkFeature {
    Sta,
    Dyn,
    Srv,
    Rtr,
    Gw,
    Dhcp,
    Ppp,
    Dsl,
    Dial,
    Cable,
    Ded,
    Res,
    Client,
    Sql,
    Wireless,
    Wifi,
}

impl LinkFeature {
    /// All 16 features, in the paper's listing order.
    pub const ALL: [LinkFeature; 16] = [
        LinkFeature::Sta,
        LinkFeature::Dyn,
        LinkFeature::Srv,
        LinkFeature::Rtr,
        LinkFeature::Gw,
        LinkFeature::Dhcp,
        LinkFeature::Ppp,
        LinkFeature::Dsl,
        LinkFeature::Dial,
        LinkFeature::Cable,
        LinkFeature::Ded,
        LinkFeature::Res,
        LinkFeature::Client,
        LinkFeature::Sql,
        LinkFeature::Wireless,
        LinkFeature::Wifi,
    ];

    /// The nine features the paper keeps for the Fig. 17 analysis.
    pub const KEPT: [LinkFeature; 9] = [
        LinkFeature::Sta,
        LinkFeature::Dyn,
        LinkFeature::Srv,
        LinkFeature::Dhcp,
        LinkFeature::Ppp,
        LinkFeature::Dsl,
        LinkFeature::Dial,
        LinkFeature::Cable,
        LinkFeature::Res,
    ];

    /// The substring matched in reverse names.
    pub fn keyword(self) -> &'static str {
        match self {
            LinkFeature::Sta => "sta",
            LinkFeature::Dyn => "dyn",
            LinkFeature::Srv => "srv",
            LinkFeature::Rtr => "rtr",
            LinkFeature::Gw => "gw",
            LinkFeature::Dhcp => "dhcp",
            LinkFeature::Ppp => "ppp",
            LinkFeature::Dsl => "dsl",
            LinkFeature::Dial => "dial",
            LinkFeature::Cable => "cable",
            LinkFeature::Ded => "ded",
            LinkFeature::Res => "res",
            LinkFeature::Client => "client",
            LinkFeature::Sql => "sql",
            LinkFeature::Wireless => "wireless",
            LinkFeature::Wifi => "wifi",
        }
    }

    /// `true` for the seven keywords the paper discards (dominant in fewer
    /// than 1000 blocks).
    pub fn discarded(self) -> bool {
        matches!(
            self,
            LinkFeature::Rtr
                | LinkFeature::Gw
                | LinkFeature::Ded
                | LinkFeature::Client
                | LinkFeature::Sql
                | LinkFeature::Wireless
                | LinkFeature::Wifi
        )
    }

    /// Index into 16-wide count arrays.
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&f| f == self).expect("feature is in ALL")
    }

    /// The bitmask every binary format stores for a feature list: bit
    /// [`index`](Self::index) set for each feature.
    pub fn mask<'a>(features: impl IntoIterator<Item = &'a LinkFeature>) -> u16 {
        features.into_iter().fold(0, |mask, f| mask | 1 << f.index())
    }

    /// The features a [`mask`](Self::mask) names, in [`ALL`](Self::ALL)
    /// order.
    pub fn from_mask(mask: u16) -> impl Iterator<Item = LinkFeature> {
        Self::ALL.into_iter().enumerate().filter(move |(i, _)| mask & (1 << i) != 0).map(|(_, f)| f)
    }
}

impl std::fmt::Display for LinkFeature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Features found in one address's reverse name (non-exclusive substring
/// match, case-insensitive).
pub fn address_features(name: &str) -> Vec<LinkFeature> {
    let lower = name.to_ascii_lowercase();
    LinkFeature::ALL.iter().copied().filter(|f| lower.contains(f.keyword())).collect()
}

/// Per-feature address counts for one block, before and after the 1/15
/// minor-feature suppression.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockLabel {
    /// Raw per-feature address counts (indexed by [`LinkFeature::index`]).
    pub counts: [u32; 16],
    /// Features surviving suppression.
    pub features: Vec<LinkFeature>,
    /// Number of addresses that had any reverse name.
    pub named_addresses: u32,
}

impl BlockLabel {
    /// Whether the block carries `feature` after suppression.
    pub fn has(&self, feature: LinkFeature) -> bool {
        self.features.contains(&feature)
    }

    /// Whether any feature survived (the paper's "has some feature").
    pub fn is_classified(&self) -> bool {
        !self.features.is_empty()
    }

    /// Whether more than one feature survived.
    pub fn is_multi_feature(&self) -> bool {
        self.features.len() > 1
    }

    /// Surviving features restricted to the paper's kept nine.
    pub fn kept_features(&self) -> Vec<LinkFeature> {
        self.features.iter().copied().filter(|f| !f.discarded()).collect()
    }
}

/// Suppression threshold: features with fewer than `max/15` addresses are
/// dropped (§2.3.3).
const SUPPRESSION_DIVISOR: u32 = 15;

/// Classifies one block from its per-address reverse names (`None` where no
/// PTR record exists). Accepts any iterator of up to 256 entries.
pub fn classify_block<'a>(names: impl IntoIterator<Item = Option<&'a str>>) -> BlockLabel {
    sleepwatch_obs::global().linktype.blocks_classified.incr();
    let mut label = BlockLabel::default();
    for name in names {
        let Some(name) = name else { continue };
        label.named_addresses += 1;
        for f in address_features(name) {
            label.counts[f.index()] += 1;
        }
    }
    let max = label.counts.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return label;
    }
    // "filtering out features that are less than 1/15th of the most
    // frequent feature … label the block with all remaining features that
    // have non-zero counts."
    let threshold = max.div_ceil(SUPPRESSION_DIVISOR);
    label.features = LinkFeature::ALL
        .iter()
        .copied()
        .filter(|f| {
            let c = label.counts[f.index()];
            c > 0 && c >= threshold
        })
        .collect();
    label
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_set_index_bits_and_invert_in_all_order() {
        let features = [LinkFeature::Dsl, LinkFeature::Sta, LinkFeature::Wifi];
        let mask = LinkFeature::mask(&features);
        assert_eq!(mask, 1 | 1 << 7 | 1 << 15);
        let back: Vec<_> = LinkFeature::from_mask(mask).collect();
        assert_eq!(back, [LinkFeature::Sta, LinkFeature::Dsl, LinkFeature::Wifi]);
        assert_eq!(LinkFeature::from_mask(0).count(), 0);
    }

    fn names_of(parts: &[(&str, usize)]) -> Vec<Option<String>> {
        let mut out = Vec::new();
        for &(tpl, n) in parts {
            for i in 0..n {
                out.push(Some(format!("{tpl}-{i:03}.example.com")));
            }
        }
        while out.len() < 256 {
            out.push(None);
        }
        out
    }

    fn classify(names: &[Option<String>]) -> BlockLabel {
        classify_block(names.iter().map(|n| n.as_deref()))
    }

    #[test]
    fn paper_example_dhcp_dialup() {
        let fs = address_features("dhcp-dialup-001.example.com");
        assert!(fs.contains(&LinkFeature::Dhcp));
        assert!(fs.contains(&LinkFeature::Dial));
    }

    #[test]
    fn abbreviations_match_full_words() {
        assert!(address_features("static-pool-7.isp.net").contains(&LinkFeature::Sta));
        assert!(address_features("DYNAMIC-44.ISP.NET").contains(&LinkFeature::Dyn));
        assert!(address_features("adsl-modem.example.org").contains(&LinkFeature::Dsl));
        assert!(address_features("resnet-12.campus.edu").contains(&LinkFeature::Res));
    }

    #[test]
    fn unrelated_names_match_nothing() {
        assert!(address_features("host-1-2-3.example.com").is_empty());
        assert!(address_features("").is_empty());
        assert!(address_features("mail.example.org").is_empty());
    }

    #[test]
    fn sixteen_keywords_nine_kept() {
        assert_eq!(LinkFeature::ALL.len(), 16);
        assert_eq!(LinkFeature::KEPT.len(), 9);
        assert_eq!(LinkFeature::ALL.iter().filter(|f| f.discarded()).count(), 7);
        for f in LinkFeature::KEPT {
            assert!(!f.discarded());
        }
    }

    #[test]
    fn block_with_uniform_names_gets_one_feature() {
        let names = names_of(&[("cable", 200)]);
        let label = classify(&names);
        assert_eq!(label.features, vec![LinkFeature::Cable]);
        assert_eq!(label.named_addresses, 200);
        assert!(label.is_classified());
        assert!(!label.is_multi_feature());
    }

    #[test]
    fn minor_feature_suppressed() {
        // 150 dsl + 5 srv: 5 < ceil(150/15)=10 → srv suppressed.
        let names = names_of(&[("dsl", 150), ("srv", 5)]);
        let label = classify(&names);
        assert_eq!(label.features, vec![LinkFeature::Dsl]);
        assert_eq!(label.counts[LinkFeature::Srv.index()], 5);
    }

    #[test]
    fn significant_second_feature_survives() {
        // 150 dsl + 20 srv: 20 ≥ 10 → both kept.
        let names = names_of(&[("dsl", 150), ("srv", 20)]);
        let label = classify(&names);
        assert!(label.has(LinkFeature::Dsl));
        assert!(label.has(LinkFeature::Srv));
        assert!(label.is_multi_feature());
    }

    #[test]
    fn unnamed_block_is_unclassified() {
        let names: Vec<Option<String>> = vec![None; 256];
        let label = classify(&names);
        assert!(!label.is_classified());
        assert_eq!(label.named_addresses, 0);
    }

    #[test]
    fn named_but_keywordless_block_is_unclassified() {
        let names = names_of(&[("host", 100)]);
        let label = classify(&names);
        assert_eq!(label.named_addresses, 100);
        assert!(!label.is_classified());
    }

    #[test]
    fn multi_keyword_names_count_for_each() {
        let names = names_of(&[("dhcp-dial", 100)]);
        let label = classify(&names);
        assert_eq!(label.counts[LinkFeature::Dhcp.index()], 100);
        assert_eq!(label.counts[LinkFeature::Dial.index()], 100);
        assert!(label.has(LinkFeature::Dhcp) && label.has(LinkFeature::Dial));
    }

    #[test]
    fn kept_features_filters_discarded() {
        let names = names_of(&[("wireless", 120), ("dyn", 120)]);
        let label = classify(&names);
        assert!(label.has(LinkFeature::Wireless), "matched before filtering");
        assert_eq!(label.kept_features(), vec![LinkFeature::Dyn]);
    }

    #[test]
    fn boundary_of_one_fifteenth() {
        // max=150 → threshold ceil(150/15)=10; exactly 10 survives, 9 doesn't.
        let at = classify(&names_of(&[("ppp", 150), ("cable", 10)]));
        assert!(at.has(LinkFeature::Cable));
        let below = classify(&names_of(&[("ppp", 150), ("cable", 9)]));
        assert!(!below.has(LinkFeature::Cable));
    }

    #[test]
    fn display_and_index_roundtrip() {
        for f in LinkFeature::ALL {
            assert_eq!(LinkFeature::ALL[f.index()], f);
            assert_eq!(format!("{f}"), f.keyword());
        }
    }
}
