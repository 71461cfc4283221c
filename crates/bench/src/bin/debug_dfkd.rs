//! Diagnostic: epoch-by-epoch generator/student losses, teacher CE on the
//! memory bank, and student accuracy, for every method at default
//! hyper-parameters. Useful when tuning budgets or investigating a
//! regression in the DFKD dynamics.

use cae_core::config::{DfkdConfig, ExperimentBudget};
use cae_core::method::MethodSpec;
use cae_core::metrics::classification::top1_accuracy;
use cae_core::teacher::{pretrained, pretrained_frozen};
use cae_core::trainer::DfkdTrainer;
use cae_data::presets::ClassificationPreset;
use cae_nn::models::Arch;
use cae_tensor::rng::TensorRng;

fn main() {
    let budget = ExperimentBudget {
        pretrain_steps: 120,
        dfkd_epochs: 8,
        generator_steps_per_epoch: 4,
        student_steps_per_epoch: 10,
        finetune_steps: 0,
        base_width: 4,
        seed: 3,
    };
    let preset = ClassificationPreset::C10Sim;
    let split = preset.generate(budget.seed);
    let config = DfkdConfig::default();
    let teacher = pretrained("teacher", Arch::ResNet34, &split.train, &budget, config.batch_size);
    // The memory-bank CE probe below only needs logits, so it reads from the
    // shared frozen compilation of the same teacher.
    let frozen_teacher = pretrained_frozen(
        "teacher",
        Arch::ResNet34,
        &split.train,
        &budget,
        config.batch_size,
    );
    println!(
        "teacher acc: {:.3}",
        top1_accuracy(teacher.as_ref(), &split.test, 32)
    );

    for spec in [
        MethodSpec::vanilla(),
        MethodSpec::nayer_like(),
        MethodSpec::cae_dfkd(4),
    ] {
        println!("== {} ==", spec.name);
        let mut rng = TensorRng::seed_from(3);
        let student = Arch::ResNet18.build(preset.num_classes(), budget.base_width, &mut rng);
        let names = preset.class_names();
        let mut t = DfkdTrainer::new(
            teacher.as_ref(),
            student,
            &names,
            preset.resolution(),
            &spec,
            config,
            &budget,
            3,
        );
        for epoch in 0..budget.dfkd_epochs {
            let mut gl = 0.0;
            let mut sl = 0.0;
            for _ in 0..budget.generator_steps_per_epoch {
                gl += t.generator_step();
            }
            for _ in 0..budget.student_steps_per_epoch {
                sl += t.student_step().unwrap_or(0.0);
            }
            let acc = top1_accuracy(t.student(), &split.test, 32);
            let (imgs, labels) = t.memory().sample_batch(32, &mut rng);
            let logits = cae_tensor::Var::constant(frozen_teacher.forward(&imgs));
            let ce = cae_nn::loss::cross_entropy(&logits, &labels).item();
            println!(
                "epoch {epoch}: g_loss {:+.3} s_loss {:.3} teacherCE(mem) {:.3} student_acc {:.3}",
                gl / budget.generator_steps_per_epoch as f32,
                sl / budget.student_steps_per_epoch as f32,
                ce,
                acc
            );
        }
    }
}
