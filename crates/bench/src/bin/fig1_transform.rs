//! **Figure 1** of the paper, regenerated: the transformation of a
//! mobile-agent protocol into a message-passing protocol for the
//! anonymous processor network, where *a message is an agent* `(P, M)`.
//!
//! The quantitative universal election machine runs natively (mobile
//! runtime) and transformed (processor network); the elected agent must
//! coincide, and the message counts quantify the transformation.

use qelect::stepquant::{QuantMachine, QuantMachineProtocol};
use qelect_agentsim::message_net::MessageNet;
use qelect_agentsim::stepagent::StepAgent;
use qelect_agentsim::RunConfig;
use qelect_bench::{header, row, standard_suite};

fn main() {
    println!("# Figure 1 — mobile agents as messages\n");
    println!(
        "{}",
        header(&[
            "instance",
            "r",
            "|E|",
            "native leader",
            "transformed leader",
            "agree",
            "native moves",
            "messages",
        ])
    );

    for inst in standard_suite() {
        let bc = &inst.bc;
        let ids: Vec<u64> = (0..bc.r() as u64).map(|i| 3 + 5 * i).collect();

        let native =
            qelect_agentsim::run(bc, &RunConfig::default(), &QuantMachineProtocol::new(&ids))
                .expect("native run failed")
                .report;

        let machines: Vec<Box<dyn StepAgent>> = ids
            .iter()
            .map(|&id| -> Box<dyn StepAgent> { Box::new(QuantMachine::new(id)) })
            .collect();
        let transformed = MessageNet::new(bc.clone(), 1).run(machines);

        println!(
            "{}",
            row(&[
                inst.label.clone(),
                bc.r().to_string(),
                bc.graph().m().to_string(),
                format!("{:?}", native.leader),
                format!("{:?}", transformed.leader),
                (native.leader == transformed.leader && native.leader.is_some()).to_string(),
                native.metrics.total_moves().to_string(),
                transformed.deliveries.to_string(),
            ])
        );
    }
    println!("\nEvery row must agree: the Fig. 1 transformation preserves election outcomes.");
}
