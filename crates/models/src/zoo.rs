//! The model zoo: the three applications of the paper's Table 1.
//!
//! | Application          | Dataset   | Architecture | Variants                          |
//! |----------------------|-----------|--------------|-----------------------------------|
//! | Object Detection     | MS COCO   | YOLOv5       | YOLOv5l, YOLOv5x, YOLOv5x6        |
//! | Language Modeling    | SQuADv2   | ALBERT       | V2-base, V2-large, V2-xlarge, V2-xxlarge |
//! | Image Classification | ImageNet  | EfficientNet | B1, B3, B5, B7                    |
//!
//! Accuracy numbers are the published ones from the models' public
//! repositories, exactly as the paper uses them (Sec. 5.1). Parameter counts
//! and GFLOPs are from the same sources. Memory footprints, saturation
//! points and serial fractions are calibrated estimates — they only shape
//! latency/energy, not accuracy.

use crate::variant::{ModelFamily, ModelVariant, VariantId};
use std::fmt;

/// The paper's three inference applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Application {
    /// YOLOv5 object detection on MS COCO.
    ObjectDetection,
    /// ALBERT extractive QA on SQuAD v2.
    LanguageModeling,
    /// EfficientNet classification on ImageNet.
    ImageClassification,
}

impl Application {
    /// All applications in Table 1 order.
    pub const ALL: [Application; 3] = [
        Application::ObjectDetection,
        Application::LanguageModeling,
        Application::ImageClassification,
    ];

    /// The model family serving this application.
    pub fn family(self) -> ModelFamily {
        match self {
            Application::ObjectDetection => yolo_v5(),
            Application::LanguageModeling => albert_v2(),
            Application::ImageClassification => efficientnet(),
        }
    }

    /// Short label used in reports ("Detection", "Language",
    /// "Classification" — as in the paper's figures).
    pub fn label(self) -> &'static str {
        match self {
            Application::ObjectDetection => "Detection",
            Application::LanguageModeling => "Language",
            Application::ImageClassification => "Classification",
        }
    }
}

impl fmt::Display for Application {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// YOLOv5 family (Ultralytics), COCO mAP50-95 from the public repository.
/// YOLOv5x6 runs at its published 1280 px resolution, hence its large
/// compute and activation footprint (it does not fit a 1g slice).
pub fn yolo_v5() -> ModelFamily {
    ModelFamily {
        architecture: "YOLOv5",
        dataset: "MS COCO",
        metric: "mAP50-95",
        variants: vec![
            ModelVariant {
                name: "YOLOv5l",
                id: VariantId(0),
                params_m: 46.5,
                gflops: 109.1,
                accuracy_pct: 49.0,
                weights_gb: 0.19,
                activations_gb: 1.4,
                saturation_units: 4.0,
                unit_efficiency: 0.65,
                serial_fraction: 0.09,
                overhead_secs: 0.009,
            },
            ModelVariant {
                name: "YOLOv5x",
                id: VariantId(1),
                params_m: 86.7,
                gflops: 205.7,
                accuracy_pct: 50.7,
                weights_gb: 0.35,
                activations_gb: 2.1,
                saturation_units: 6.0,
                unit_efficiency: 1.0,
                serial_fraction: 0.08,
                overhead_secs: 0.010,
            },
            ModelVariant {
                name: "YOLOv5x6",
                id: VariantId(2),
                params_m: 140.7,
                gflops: 839.2,
                accuracy_pct: 55.0,
                weights_gb: 0.56,
                activations_gb: 5.4,
                saturation_units: 7.0,
                unit_efficiency: 1.0,
                serial_fraction: 0.06,
                overhead_secs: 0.014,
            },
        ],
    }
}

/// ALBERT v2 family (Google), SQuAD v2 dev F1 from the ALBERT paper.
/// FLOPs estimated at sequence length 384; parameter sharing keeps weights
/// tiny but activations scale with hidden width.
pub fn albert_v2() -> ModelFamily {
    ModelFamily {
        architecture: "ALBERT",
        dataset: "SQuADv2",
        metric: "F1",
        variants: vec![
            ModelVariant {
                name: "ALBERT-V2-base",
                id: VariantId(0),
                params_m: 11.8,
                gflops: 22.0,
                accuracy_pct: 82.1,
                weights_gb: 0.05,
                activations_gb: 0.7,
                saturation_units: 2.0,
                unit_efficiency: 0.18,
                serial_fraction: 0.11,
                overhead_secs: 0.004,
            },
            ModelVariant {
                name: "ALBERT-V2-large",
                id: VariantId(1),
                params_m: 17.9,
                gflops: 78.0,
                accuracy_pct: 84.9,
                weights_gb: 0.07,
                activations_gb: 1.1,
                saturation_units: 3.0,
                unit_efficiency: 0.62,
                serial_fraction: 0.10,
                overhead_secs: 0.004,
            },
            ModelVariant {
                name: "ALBERT-V2-xlarge",
                id: VariantId(2),
                params_m: 58.9,
                gflops: 280.0,
                accuracy_pct: 87.4,
                weights_gb: 0.24,
                activations_gb: 2.2,
                saturation_units: 5.0,
                unit_efficiency: 0.75,
                serial_fraction: 0.08,
                overhead_secs: 0.005,
            },
            ModelVariant {
                name: "ALBERT-V2-xxlarge",
                id: VariantId(3),
                params_m: 223.1,
                gflops: 620.0,
                accuracy_pct: 90.2,
                weights_gb: 0.89,
                activations_gb: 3.3,
                saturation_units: 7.0,
                unit_efficiency: 1.0,
                serial_fraction: 0.065,
                overhead_secs: 0.006,
            },
        ],
    }
}

/// EfficientNet family (Google), ImageNet top-1 from the public PyTorch
/// implementation. Input resolution grows from 240 px (B1) to 600 px (B7),
/// which drives B7's activation footprint past the 1g slice's 5 GB.
pub fn efficientnet() -> ModelFamily {
    ModelFamily {
        architecture: "EfficientNet",
        dataset: "ImageNet",
        metric: "top-1",
        variants: vec![
            ModelVariant {
                name: "EfficientNet-B1",
                id: VariantId(0),
                params_m: 7.8,
                gflops: 0.70,
                accuracy_pct: 79.1,
                weights_gb: 0.03,
                activations_gb: 0.4,
                saturation_units: 1.5,
                unit_efficiency: 0.135,
                serial_fraction: 0.15,
                overhead_secs: 0.0035,
            },
            ModelVariant {
                name: "EfficientNet-B3",
                id: VariantId(1),
                params_m: 12.0,
                gflops: 1.8,
                accuracy_pct: 81.6,
                weights_gb: 0.05,
                activations_gb: 0.7,
                saturation_units: 2.5,
                unit_efficiency: 0.35,
                serial_fraction: 0.13,
                overhead_secs: 0.004,
            },
            ModelVariant {
                name: "EfficientNet-B5",
                id: VariantId(2),
                params_m: 30.0,
                gflops: 9.9,
                accuracy_pct: 83.6,
                weights_gb: 0.12,
                activations_gb: 1.7,
                saturation_units: 5.0,
                unit_efficiency: 0.8,
                serial_fraction: 0.10,
                overhead_secs: 0.005,
            },
            ModelVariant {
                name: "EfficientNet-B7",
                id: VariantId(3),
                params_m: 66.0,
                gflops: 37.0,
                accuracy_pct: 84.3,
                weights_gb: 0.26,
                activations_gb: 4.0,
                saturation_units: 7.0,
                unit_efficiency: 1.0,
                serial_fraction: 0.075,
                overhead_secs: 0.006,
            },
        ],
    }
}

/// Renders Table 1 of the paper as plain-text rows.
pub fn table1() -> Vec<String> {
    let mut rows = vec![format!(
        "{:<22} {:<10} {:<13} {}",
        "Application", "Dataset", "Architecture", "Variants"
    )];
    for app in Application::ALL {
        let fam = app.family();
        let names: Vec<&str> = fam.variants.iter().map(|v| v.name).collect();
        rows.push(format!(
            "{:<22} {:<10} {:<13} {}",
            app.label(),
            fam.dataset,
            fam.architecture,
            names.join(", ")
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_mig::SliceType;

    #[test]
    fn table1_shape_matches_paper() {
        assert_eq!(yolo_v5().len(), 3);
        assert_eq!(albert_v2().len(), 4);
        assert_eq!(efficientnet().len(), 4);
        let rows = table1();
        assert_eq!(rows.len(), 4);
        assert!(rows[1].contains("YOLOv5x6"));
        assert!(rows[2].contains("ALBERT"));
        assert!(rows[3].contains("EfficientNet-B7"));
    }

    #[test]
    fn accuracy_monotone_in_size() {
        for app in Application::ALL {
            let fam = app.family();
            for pair in fam.variants.windows(2) {
                assert!(
                    pair[1].accuracy_pct > pair[0].accuracy_pct,
                    "{}: accuracy not monotone",
                    fam.architecture
                );
                assert!(
                    pair[1].gflops > pair[0].gflops,
                    "{}: FLOPs not monotone",
                    fam.architecture
                );
                assert!(
                    pair[1].params_m > pair[0].params_m,
                    "{}: params not monotone",
                    fam.architecture
                );
            }
        }
    }

    #[test]
    fn published_headline_numbers() {
        assert_eq!(efficientnet().largest().accuracy_pct, 84.3);
        assert_eq!(efficientnet().smallest().accuracy_pct, 79.1);
        assert_eq!(yolo_v5().largest().name, "YOLOv5x6");
        assert_eq!(albert_v2().largest().params_m, 223.1);
        assert_eq!(albert_v2().largest().accuracy_pct, 90.2);
        assert_eq!(yolo_v5().largest().accuracy_pct, 55.0);
    }

    #[test]
    fn oom_edges_exist() {
        // The paper notes not all models fit the 5 GB 1g slice; our zoo has
        // at least one such variant per large family.
        assert!(!yolo_v5().largest().fits(SliceType::G1));
        assert!(!efficientnet().largest().fits(SliceType::G1));
        // And every variant fits the full GPU.
        for app in Application::ALL {
            for v in &app.family().variants {
                assert!(v.fits(SliceType::G7), "{} does not fit 7g", v.name);
            }
        }
        // Every family's smallest variant fits the smallest slice, otherwise
        // CO2OPT would be undeployable.
        for app in Application::ALL {
            assert!(app.family().smallest().fits(SliceType::G1));
        }
    }

    #[test]
    fn saturation_and_serial_fractions_sane() {
        for app in Application::ALL {
            for v in &app.family().variants {
                assert!((1.0..=7.0).contains(&v.saturation_units), "{}", v.name);
                assert!((0.0..0.5).contains(&v.serial_fraction), "{}", v.name);
                assert!(v.overhead_secs > 0.0 && v.overhead_secs < 0.05);
                assert!((0.05..=1.0).contains(&v.unit_efficiency), "{}", v.name);
            }
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Application::ObjectDetection.label(), "Detection");
        assert_eq!(
            Application::ImageClassification.to_string(),
            "Classification"
        );
    }
}
