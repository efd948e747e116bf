//! The coordination and subscription protocols of Fig. 10 over runtime
//! sessions, including the client-crash scenario that motivates the leased
//! protocol variant (Sec. 7).
//!
//! Run with `cargo run --example protocol_simulation`.

use ix_core::{parse, Action, Value};
use ix_manager::{ManagerRuntime, Notification, ProtocolVariant};

fn call(p: i64, x: &str) -> Action {
    Action::concrete("call", [Value::int(p), Value::sym(x)])
}

fn perform(p: i64, x: &str) -> Action {
    Action::concrete("perform", [Value::int(p), Value::sym(x)])
}

fn print_notifications(notes: &[Notification]) {
    for note in notes {
        println!(
            "  notification for client {}: {} is now {}",
            note.client,
            note.action,
            if note.permitted { "permissible" } else { "NOT permissible" }
        );
    }
}

fn main() {
    let constraint = parse("all p { (some x { call(p, x) - perform(p, x) })* }").unwrap();

    // --- coordination + subscription protocol -----------------------------
    let runtime = ManagerRuntime::with_protocol(&constraint, ProtocolVariant::Combined).unwrap();
    let ultrasound_worklist = runtime.session(1);
    let endoscopy_worklist = runtime.session(2);

    let watched = call(1, "endo");
    let initially = endoscopy_worklist.subscribe_blocking(&watched).unwrap();
    println!("endoscopy worklist subscribes to {watched}: initially permitted = {initially}");
    assert!(initially);

    // A commit delivers its notifications before its ticket resolves, so
    // they are waiting by the time `execute_blocking` returns.
    println!("ultrasonography department executes call(1, sono)");
    assert!(ultrasound_worklist.execute_blocking(&call(1, "sono")).unwrap().is_some());
    let notes = endoscopy_worklist.poll_notifications();
    print_notifications(&notes);
    assert_eq!(notes.len(), 1);
    assert!(!notes[0].permitted);

    println!("ultrasonography department executes perform(1, sono)");
    assert!(ultrasound_worklist.execute_blocking(&perform(1, "sono")).unwrap().is_some());
    let notes = endoscopy_worklist.poll_notifications();
    print_notifications(&notes);
    assert_eq!(notes.len(), 1);
    assert!(notes[0].permitted);

    let report = runtime.shutdown().unwrap();
    println!(
        "manager processed {} confirmations, sent {} notifications\n",
        report.stats.confirmations, report.stats.notifications
    );

    // --- client crash and lease recovery ----------------------------------
    let capacity_one = parse("mult 1 { (some p { call(p, sono) - perform(p, sono) })* }").unwrap();
    let runtime =
        ManagerRuntime::with_protocol(&capacity_one, ProtocolVariant::Leased { lease: 10 })
            .unwrap();
    let crashing = runtime.session(7);
    let healthy = runtime.session(8);
    let _grant = crashing.ask_blocking(&call(1, "sono")).unwrap().expect("granted");
    println!("client 7 is granted call(1, sono) and then crashes before confirming");
    let denied = healthy.ask_blocking(&call(2, "sono")).unwrap();
    println!("client 8 asks for call(2, sono): {denied:?}");
    assert_eq!(denied, None, "the crashed client's lease still holds the only slot");
    let expired = healthy.advance_time(20);
    assert_eq!(expired.len(), 1, "the crashed client's lease runs out");
    let granted = healthy.ask_blocking(&call(2, "sono")).unwrap();
    println!("after the lease expires, client 8 asks again: {:?}", granted.map(|_| "granted"));
    assert!(granted.is_some());
    runtime.shutdown().unwrap();
}
