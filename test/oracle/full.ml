(* The oracle's full seed set: 30 seeds at R = 2 and at R = 1. *)
let seeds = List.init 30 (fun i -> 101 + i)

let () =
  Alcotest.run "service-oracle"
    [
      ( "oracle",
        [
          Alcotest.test_case "30 seeds, R=2: exact bitwise, sketch within (ε,δ)" `Quick
            (Service_oracle.seed_set ~replicas:2 seeds);
          Alcotest.test_case "30 seeds, R=1: exact bitwise, sketch within (ε,δ)" `Quick
            (Service_oracle.seed_set ~replicas:1 seeds);
        ] );
    ]
