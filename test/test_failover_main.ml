(* The failover suite runs in its own executable for the reasons the
   serve_chaos suite does (see test_serve_main.ml): its printed names
   stay fixed, and its chaos scenario forks broker processes. *)
(* The in-process server tests drive Broker_server.step directly
   (without Broker_server.run, which installs this handler itself), so
   writes to freshly dead sockets must surface as EPIPE, not kill the
   test binary. *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore
let () = Alcotest.run "probsub-failover" [ ("failover", Test_failover.suite) ]
