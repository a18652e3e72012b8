# Synthesized by scooter makemigration; verify with sidecar before applying.
CreateModel(Coupon {
  create: none,
  delete: none,
  code: String { read: none, write: none },
  percent: I64 { read: none, write: none },
});
