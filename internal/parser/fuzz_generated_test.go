package parser

// Machine-generated seed inputs for the fuzz targets: the exact output of
// `scooter struct2schema` on testdata/models, and the bootstrap script
// `scooter makemigration` synthesizes from it. Machine-generated sources
// exercise the grammar corners tools emit (annotation blocks, Option/Set
// nesting, synthesized initialisers) that hand-written seeds tend to miss.
// They are exported to the external test package, which checks them with
// specfmt (an import the parser's own tests cannot make).

const GeneratedSpecSeed = `@static-principal
AuditService

@static-principal
Unauthenticated

AuditLog {
  create: public,
  delete: none,
  actor: Option(Id(User)) {
    read: _ -> [AuditService],
    write: none
  },
  action: String {
    read: _ -> [AuditService],
    write: none
  },
  payload: Blob {
    read: _ -> [AuditService],
    write: none
  }
}

Order {
  create: public,
  delete: none,
  buyer: Id(User) {
    read: public,
    write: none
  },
  total: F64 {
    read: public,
    write: none
  },
  note: Option(String) {
    read: o -> [o.buyer],
    write: o -> [o.buyer]
  },
  watchers: Set(Id(User)) {
    read: public,
    write: none
  },
  placed_at: DateTime {
    read: public,
    write: none
  },
  created_at: DateTime {
    read: public,
    write: none
  },
  updated_at: Option(DateTime) {
    read: public,
    write: none
  }
}

@principal
User {
  create: public,
  delete: u -> [u],
  name: String {
    read: public,
    write: u -> [u]
  },
  email: String {
    read: u -> [u],
    write: u -> [u]
  },
  password_hash: String {
    read: none,
    write: u -> [u]
  },
  admin: Bool {
    read: public,
    write: none
  },
  created_at: DateTime {
    read: public,
    write: none
  },
  updated_at: Option(DateTime) {
    read: public,
    write: none
  }
}

`

const GeneratedMigrationSeed = `# Synthesized by scooter makemigration; verify with sidecar before applying.
AddStaticPrincipal(AuditService);
AddStaticPrincipal(Unauthenticated);
CreateModel(@principal
User {
  create: public,
  delete: u -> [u],
  name: String { read: public, write: u -> [u] },
  email: String { read: u -> [u], write: u -> [u] },
  password_hash: String { read: none, write: u -> [u] },
  admin: Bool { read: public, write: none },
  created_at: DateTime { read: public, write: none },
  updated_at: Option(DateTime) { read: public, write: none },
});
CreateModel(AuditLog {
  create: public,
  delete: none,
  actor: Option(Id(User)) { read: _ -> [AuditService], write: none },
  action: String { read: _ -> [AuditService], write: none },
  payload: Blob { read: _ -> [AuditService], write: none },
});
CreateModel(Order {
  create: public,
  delete: none,
  buyer: Id(User) { read: public, write: none },
  total: F64 { read: public, write: none },
  note: Option(String) { read: o -> [o.buyer], write: o -> [o.buyer] },
  watchers: Set(Id(User)) { read: public, write: none },
  placed_at: DateTime { read: public, write: none },
  created_at: DateTime { read: public, write: none },
  updated_at: Option(DateTime) { read: public, write: none },
});
`
