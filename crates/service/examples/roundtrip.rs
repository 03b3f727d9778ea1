//! Minimal end-to-end loop: start a server, stream two batches from two
//! clients, read back the exact sum, shut down.
//!
//! ```text
//! cargo run -p oisum-service --example roundtrip
//! ```

use oisum_service::{serve, Client, ServerConfig, ServiceHp};

fn main() {
    let server = serve(ServerConfig::default()).expect("start server");
    println!("server on {}", server.addr());

    // Two producers deposit interleaved halves of one dataset.
    let xs: Vec<f64> = (0..10_000).map(|i| (i as f64 - 5_000.0) * 1e-7).collect();
    let (evens, odds): (Vec<f64>, Vec<f64>) = {
        let mut e = Vec::new();
        let mut o = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % 2 == 0 {
                e.push(x);
            } else {
                o.push(x);
            }
        }
        (e, o)
    };
    let mut a = Client::connect(server.addr()).expect("connect a");
    let mut b = Client::connect(server.addr()).expect("connect b");
    a.add_binary("demo", &evens).expect("add evens");
    b.add_binary("demo", &odds).expect("add odds");

    let reply = a.sum("demo").expect("sum");
    let expected = ServiceHp::sum_f64_slice(&xs);
    println!("server limbs:   {:?}", reply.limbs);
    println!("sequential sum: {:?}", expected.as_limbs());
    assert_eq!(reply.limbs, expected.as_limbs().to_vec());
    println!("bitwise identical ✓ (value ≈ {})", expected.to_f64());

    // Live connections drain before the server stops, so close the idle
    // client first.
    drop(a);
    b.shutdown().expect("shutdown");
    server.join().expect("join");
}
