type t = {
  mutable subscribe_msgs : int;
  mutable unsubscribe_msgs : int;
  mutable advertise_msgs : int;
  mutable publish_msgs : int;
  mutable ack_msgs : int;
  mutable notifications : int;
  mutable suppressed_subscriptions : int;
  mutable duplicate_drops : int;
  mutable dropped_msgs : int;
  mutable duplicated_msgs : int;
  mutable retransmissions : int;
  mutable lease_renewals : int;
  mutable lease_expiries : int;
  mutable crashes : int;
  mutable match_scans : int;
  mutable match_index_hits : int;
}

let create () =
  {
    subscribe_msgs = 0;
    unsubscribe_msgs = 0;
    advertise_msgs = 0;
    publish_msgs = 0;
    ack_msgs = 0;
    notifications = 0;
    suppressed_subscriptions = 0;
    duplicate_drops = 0;
    dropped_msgs = 0;
    duplicated_msgs = 0;
    retransmissions = 0;
    lease_renewals = 0;
    lease_expiries = 0;
    crashes = 0;
    match_scans = 0;
    match_index_hits = 0;
  }

let reset t =
  t.subscribe_msgs <- 0;
  t.unsubscribe_msgs <- 0;
  t.advertise_msgs <- 0;
  t.publish_msgs <- 0;
  t.ack_msgs <- 0;
  t.notifications <- 0;
  t.suppressed_subscriptions <- 0;
  t.duplicate_drops <- 0;
  t.dropped_msgs <- 0;
  t.duplicated_msgs <- 0;
  t.retransmissions <- 0;
  t.lease_renewals <- 0;
  t.lease_expiries <- 0;
  t.crashes <- 0;
  t.match_scans <- 0;
  t.match_index_hits <- 0

let total_messages t =
  t.subscribe_msgs + t.unsubscribe_msgs + t.advertise_msgs + t.publish_msgs
  + t.ack_msgs

let pp ppf t =
  Format.fprintf ppf
    "@[<v>subscribe msgs:  %d@,unsubscribe msgs: %d@,advertise msgs:  %d@,\
     publish msgs:    %d@,ack msgs:        %d@,notifications:   %d@,\
     suppressed subs: %d@,duplicate drops: %d@,dropped msgs:    %d@,\
     duplicated msgs: %d@,retransmissions: %d@,lease renewals:  %d@,\
     lease expiries:  %d@,crashes:         %d@,match scans:     %d@,\
     match idx hits:  %d@]"
    t.subscribe_msgs t.unsubscribe_msgs t.advertise_msgs t.publish_msgs
    t.ack_msgs t.notifications t.suppressed_subscriptions t.duplicate_drops
    t.dropped_msgs t.duplicated_msgs t.retransmissions t.lease_renewals
    t.lease_expiries t.crashes t.match_scans t.match_index_hits

let equal a b =
  a.subscribe_msgs = b.subscribe_msgs
  && a.unsubscribe_msgs = b.unsubscribe_msgs
  && a.advertise_msgs = b.advertise_msgs
  && a.publish_msgs = b.publish_msgs
  && a.ack_msgs = b.ack_msgs
  && a.notifications = b.notifications
  && a.suppressed_subscriptions = b.suppressed_subscriptions
  && a.duplicate_drops = b.duplicate_drops
  && a.dropped_msgs = b.dropped_msgs
  && a.duplicated_msgs = b.duplicated_msgs
  && a.retransmissions = b.retransmissions
  && a.lease_renewals = b.lease_renewals
  && a.lease_expiries = b.lease_expiries
  && a.crashes = b.crashes
  && a.match_scans = b.match_scans
  && a.match_index_hits = b.match_index_hits
