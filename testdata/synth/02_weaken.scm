# Synthesized by scooter makemigration; verify with sidecar before applying.
User::UpdateFieldPolicy(password_hash, {read: public});
