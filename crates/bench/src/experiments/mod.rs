//! One module per regenerated table/figure of the paper's evaluation.

pub mod ablation;
pub mod authority;
pub mod catalog;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod quant;
pub mod table3;
pub mod tier0;
