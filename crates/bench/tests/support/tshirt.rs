//! The "T-shirt size" provisioning menu of Figure 1.
//!
//! Snowflake-style warehouses are sold in doubling sizes (XS, S, M, ...)
//! where each step doubles both the node count and the hourly price. The
//! paper's opening argument is that forcing users to pick from this menu
//! causes over/under-provisioning; experiment F1 quantifies it against the
//! bi-objective optimizer's automatic deployment.

/// The classic warehouse T-shirt sizes with their node counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TShirtSize {
    /// 1 node.
    XS,
    /// 2 nodes.
    S,
    /// 4 nodes.
    M,
    /// 8 nodes.
    L,
    /// 16 nodes.
    XL,
    /// 32 nodes.
    X2L,
    /// 64 nodes.
    X3L,
    /// 128 nodes.
    X4L,
}

impl TShirtSize {
    /// All sizes in ascending order.
    pub const ALL: [TShirtSize; 8] = [
        TShirtSize::XS,
        TShirtSize::S,
        TShirtSize::M,
        TShirtSize::L,
        TShirtSize::XL,
        TShirtSize::X2L,
        TShirtSize::X3L,
        TShirtSize::X4L,
    ];

    /// Number of nodes this size provisions.
    pub fn nodes(self) -> u32 {
        match self {
            TShirtSize::XS => 1,
            TShirtSize::S => 2,
            TShirtSize::M => 4,
            TShirtSize::L => 8,
            TShirtSize::XL => 16,
            TShirtSize::X2L => 32,
            TShirtSize::X3L => 64,
            TShirtSize::X4L => 128,
        }
    }

    /// Display label matching the provider UI.
    pub fn label(self) -> &'static str {
        match self {
            TShirtSize::XS => "X-Small",
            TShirtSize::S => "Small",
            TShirtSize::M => "Medium",
            TShirtSize::L => "Large",
            TShirtSize::XL => "X-Large",
            TShirtSize::X2L => "2X-Large",
            TShirtSize::X3L => "3X-Large",
            TShirtSize::X4L => "4X-Large",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_double() {
        let mut prev = 0;
        for s in TShirtSize::ALL {
            let n = s.nodes();
            if prev != 0 {
                assert_eq!(n, prev * 2, "{s:?}");
            }
            prev = n;
        }
        assert_eq!(TShirtSize::XS.nodes(), 1);
        assert_eq!(TShirtSize::X4L.nodes(), 128);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = TShirtSize::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), TShirtSize::ALL.len());
    }
}
