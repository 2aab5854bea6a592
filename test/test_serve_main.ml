(* The serve_chaos suite runs in its own executable. Alcotest shortens a
   long test name to fit beside the widest suite name in its run, so
   registering this suite in test_main would change the printed names
   its results are tracked by. The harness forks broker processes, so
   nothing in this process may spawn a domain: OCaml 5 forbids
   [Unix.fork] after one. *)
let () = Alcotest.run "probsub-serve" [ ("serve_chaos", Test_serve_chaos.suite) ]
