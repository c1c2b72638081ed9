//! The attack taxonomy of Table I: attack kinds × targeted fields.

use std::fmt;

/// How the targeted field's value is falsified (rows of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Transmit a random value each message.
    Random,
    /// Transmit the true value plus a fresh random offset each message.
    RandomOffset,
    /// Transmit a constant value (sampled once per attacker).
    Constant,
    /// Transmit the true value plus a constant offset (sampled once).
    ConstantOffset,
    /// Transmit a significantly high value.
    High,
    /// Transmit a significantly low value.
    Low,
    /// Transmit the opposite of the true heading (heading only).
    Opposite,
    /// Transmit a heading perpendicular to the true one (heading only).
    Perpendicular,
    /// Transmit a heading rotating over time (heading only).
    Rotating,
}

impl AttackKind {
    /// All attack kinds in Table I row order.
    pub const ALL: [AttackKind; 9] = [
        AttackKind::Random,
        AttackKind::RandomOffset,
        AttackKind::Constant,
        AttackKind::ConstantOffset,
        AttackKind::High,
        AttackKind::Low,
        AttackKind::Opposite,
        AttackKind::Perpendicular,
        AttackKind::Rotating,
    ];

    fn label(self) -> &'static str {
        match self {
            AttackKind::Random => "Random",
            AttackKind::RandomOffset => "Random",
            AttackKind::Constant => "Constant",
            AttackKind::ConstantOffset => "Constant",
            AttackKind::High => "High",
            AttackKind::Low => "Low",
            AttackKind::Opposite => "Opposite",
            AttackKind::Perpendicular => "Perpendicular",
            AttackKind::Rotating => "Rotating",
        }
    }

    fn is_offset(self) -> bool {
        matches!(self, AttackKind::RandomOffset | AttackKind::ConstantOffset)
    }
}

/// Which BSM field(s) the attack falsifies (columns of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetField {
    /// `(pos_x, pos_y)`.
    Position,
    /// Scalar speed.
    Speed,
    /// Longitudinal acceleration.
    Acceleration,
    /// Heading angle.
    Heading,
    /// Yaw rate.
    YawRate,
    /// Heading and yaw rate falsified together, coherently — the paper's
    /// "advanced attacks" (Table I circled 30–35, last six rows of
    /// Table III).
    HeadingYawRate,
}

impl TargetField {
    /// All target fields in Table I column order.
    pub const ALL: [TargetField; 6] = [
        TargetField::Position,
        TargetField::Speed,
        TargetField::Acceleration,
        TargetField::Heading,
        TargetField::YawRate,
        TargetField::HeadingYawRate,
    ];

    fn label(self) -> &'static str {
        match self {
            TargetField::Position => "Position",
            TargetField::Speed => "Speed",
            TargetField::Acceleration => "Acceleration",
            TargetField::Heading => "Heading",
            TargetField::YawRate => "YawRate",
            TargetField::HeadingYawRate => "HeadingYawRate",
        }
    }
}

/// Error building an attack outside the Table I matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidAttackError {
    kind: AttackKind,
    field: TargetField,
}

impl fmt::Display for InvalidAttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "attack kind {:?} is not defined for field {:?} in the threat matrix",
            self.kind, self.field
        )
    }
}

impl std::error::Error for InvalidAttackError {}

/// A validated (kind, field) pair from the Table I attack matrix.
///
/// # Examples
///
/// ```
/// use vehigan_vasp::{Attack, AttackKind, TargetField};
///
/// let attack = Attack::new(AttackKind::Rotating, TargetField::Heading)?;
/// assert_eq!(attack.name(), "RotatingHeading");
/// assert!(Attack::new(AttackKind::Rotating, TargetField::Speed).is_err());
/// # Ok::<(), vehigan_vasp::InvalidAttackError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Attack {
    kind: AttackKind,
    field: TargetField,
}

impl Attack {
    /// Creates an attack, validating the pair against the threat matrix.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidAttackError`] for combinations outside Table I
    /// (e.g. `High`/`Low` on position, `Opposite` on speed).
    pub fn new(kind: AttackKind, field: TargetField) -> Result<Self, InvalidAttackError> {
        let valid = match field {
            TargetField::Position => matches!(
                kind,
                AttackKind::Random
                    | AttackKind::RandomOffset
                    | AttackKind::Constant
                    | AttackKind::ConstantOffset
            ),
            TargetField::Speed
            | TargetField::Acceleration
            | TargetField::YawRate
            | TargetField::HeadingYawRate => matches!(
                kind,
                AttackKind::Random
                    | AttackKind::RandomOffset
                    | AttackKind::Constant
                    | AttackKind::ConstantOffset
                    | AttackKind::High
                    | AttackKind::Low
            ),
            TargetField::Heading => matches!(
                kind,
                AttackKind::Random
                    | AttackKind::RandomOffset
                    | AttackKind::Constant
                    | AttackKind::ConstantOffset
                    | AttackKind::Opposite
                    | AttackKind::Perpendicular
                    | AttackKind::Rotating
            ),
        };
        if valid {
            Ok(Attack { kind, field })
        } else {
            Err(InvalidAttackError { kind, field })
        }
    }

    /// The attack kind.
    pub fn kind(&self) -> AttackKind {
        self.kind
    }

    /// The targeted field(s).
    pub fn field(&self) -> TargetField {
        self.field
    }

    /// The paper's attack name, e.g. `RandomPositionOffset`,
    /// `PlaygroundConstantPosition`, `HighHeadingYawRate`.
    pub fn name(&self) -> String {
        // VASP's naming: "<Kind><Field>" with "Offset" suffixed after the
        // field, and the special "PlaygroundConstantPosition" case.
        if self.kind == AttackKind::Constant && self.field == TargetField::Position {
            return "PlaygroundConstantPosition".to_string();
        }
        let suffix = if self.kind.is_offset() { "Offset" } else { "" };
        format!("{}{}{}", self.kind.label(), self.field.label(), suffix)
    }

    /// Whether this is one of the six advanced multi-field attacks.
    pub fn is_advanced(&self) -> bool {
        self.field == TargetField::HeadingYawRate
    }

    /// The full in-scope catalog: all 35 attacks of Table III, in the
    /// paper's row order (position, speed, acceleration, heading, yaw rate,
    /// heading & yaw rate).
    pub fn catalog() -> Vec<Attack> {
        let mut attacks = Vec::with_capacity(35);
        for field in TargetField::ALL {
            for kind in AttackKind::ALL {
                if let Ok(a) = Attack::new(kind, field) {
                    attacks.push(a);
                }
            }
        }
        attacks
    }

    /// Looks an attack up by its paper name.
    ///
    /// # Examples
    ///
    /// ```
    /// use vehigan_vasp::Attack;
    /// let a = Attack::by_name("HighHeadingYawRate").unwrap();
    /// assert!(a.is_advanced());
    /// assert!(Attack::by_name("WormholePosition").is_none());
    /// ```
    pub fn by_name(name: &str) -> Option<Attack> {
        Self::catalog().into_iter().find(|a| a.name() == name)
    }
}

impl fmt::Display for Attack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalog_has_exactly_35_attacks() {
        assert_eq!(Attack::catalog().len(), 35);
    }

    #[test]
    fn catalog_names_are_unique() {
        let names: HashSet<String> = Attack::catalog().iter().map(Attack::name).collect();
        assert_eq!(names.len(), 35);
    }

    #[test]
    fn catalog_matches_table3_counts_per_field() {
        let catalog = Attack::catalog();
        let count = |f: TargetField| catalog.iter().filter(|a| a.field() == f).count();
        assert_eq!(count(TargetField::Position), 4);
        assert_eq!(count(TargetField::Speed), 6);
        assert_eq!(count(TargetField::Acceleration), 6);
        assert_eq!(count(TargetField::Heading), 7);
        assert_eq!(count(TargetField::YawRate), 6);
        assert_eq!(count(TargetField::HeadingYawRate), 6);
    }

    #[test]
    fn table3_names_all_resolve() {
        let expected = [
            "RandomPosition",
            "RandomPositionOffset",
            "PlaygroundConstantPosition",
            "ConstantPositionOffset",
            "RandomSpeed",
            "RandomSpeedOffset",
            "ConstantSpeed",
            "ConstantSpeedOffset",
            "HighSpeed",
            "LowSpeed",
            "RandomAcceleration",
            "RandomAccelerationOffset",
            "ConstantAcceleration",
            "ConstantAccelerationOffset",
            "HighAcceleration",
            "LowAcceleration",
            "RandomHeading",
            "RandomHeadingOffset",
            "ConstantHeading",
            "ConstantHeadingOffset",
            "OppositeHeading",
            "PerpendicularHeading",
            "RotatingHeading",
            "RandomYawRate",
            "RandomYawRateOffset",
            "ConstantYawRate",
            "ConstantYawRateOffset",
            "HighYawRate",
            "LowYawRate",
            "RandomHeadingYawRate",
            "RandomHeadingYawRateOffset",
            "ConstantHeadingYawRate",
            "ConstantHeadingYawRateOffset",
            "HighHeadingYawRate",
            "LowHeadingYawRate",
        ];
        assert_eq!(expected.len(), 35);
        for name in expected {
            assert!(Attack::by_name(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn invalid_combinations_rejected() {
        assert!(Attack::new(AttackKind::High, TargetField::Position).is_err());
        assert!(Attack::new(AttackKind::Opposite, TargetField::Speed).is_err());
        assert!(Attack::new(AttackKind::Rotating, TargetField::YawRate).is_err());
        assert!(Attack::new(AttackKind::Perpendicular, TargetField::HeadingYawRate).is_err());
    }

    #[test]
    fn advanced_attacks_flagged() {
        let catalog = Attack::catalog();
        let advanced: Vec<_> = catalog.iter().filter(|a| a.is_advanced()).collect();
        assert_eq!(advanced.len(), 6);
        assert!(advanced.iter().all(|a| a.name().contains("HeadingYawRate")));
    }

    #[test]
    fn error_display_mentions_both_parts() {
        let err = Attack::new(AttackKind::Rotating, TargetField::Speed).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("Rotating") && msg.contains("Speed"));
    }
}
