User::UpdateFieldReadPolicy(f0, u -> (if u.adminLevel >= 1 then ([u]) else ([u.bestFriend])) - ((u.followers) - ([Unauthenticated])));
User::UpdateFieldReadPolicy(f1, u -> (((User::Find({adminLevel < -1})) - (User::Find({adminLevel < 2}))) + (if u.isAdmin then ([u.bestFriend]) else (User::Find({adminLevel >= 4})))) - (u.followers.flat_map(f -> User::ById(f).followers)));
User::UpdateFieldReadPolicy(f2, u -> (([u.bestFriend]) - (User::Find({adminLevel >= 1}))) - ((User::Find({isAdmin: true})) - ([Unauthenticated])));
User::UpdateFieldReadPolicy(f3, u -> (((User::Find({adminLevel <= 1})) + (u.followers)) - (u.followers)) - (if u.adminLevel >= 2 then (u.followers) else ([Unauthenticated])));
User::AddField(g : String { read: u -> ((([u.bestFriend]) - (User::Find({adminLevel >= 0}))) - ((User::Find({isAdmin: true})) - ([Unauthenticated]))) - ((u.followers) + (User::Find({isAdmin: true}))), write: u -> [u] }, u -> u.f2);
