User::UpdateFieldReadPolicy(f0, u -> (if u.adminLevel >= 3 then (User::Find({adminLevel > 1})) else (User::Find({adminLevel > 4}))) - (([u.bestFriend]) + (User::Find({adminLevel > 3}))));
User::UpdateFieldReadPolicy(f1, u -> (if u.isAdmin then (([u]) + (User::Find({adminLevel >= 2}))) else ((u.followers) + ([u]))) - (([Unauthenticated]) - ([u])));
User::UpdateFieldReadPolicy(f2, u -> (if u.isAdmin then (if u.adminLevel >= 3 then (User::Find({adminLevel > 4})) else ([u.bestFriend])) else ((User::Find({adminLevel < -1})) - (User::Find({adminLevel < 3})))) - ([u]));
User::UpdateFieldReadPolicy(f3, u -> ((if u.isAdmin then ([Unauthenticated]) else (User::Find({adminLevel : 1}))) + ([u.bestFriend])) - (if u.adminLevel >= 3 then (User::Find({adminLevel > 1})) else ([Unauthenticated])));
User::AddField(g : String { read: u -> if u.adminLevel >= 2 then (User::Find({adminLevel : 3})) else (User::Find({isAdmin: true})), write: u -> [u] }, u -> u.f1);
